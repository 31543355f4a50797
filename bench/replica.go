package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"qnp/internal/core"
	"qnp/internal/netsim"
	"qnp/internal/signaling"
	"qnp/qnet"
)

// counters are one replica's simulated outcome, read from each layer's
// public Stats() and the scenario Metrics. They are a pure function of the
// scenario and its seed, so a repeat of the replica, traced or not, must
// reproduce them exactly.
type counters struct {
	Events                          uint64 // sim: events fired
	Rounds, Attempts, RoundsAborted uint64 // linklayer: rounds fired, attempts in them, rounds aborted
	Swaps, CutoffDiscards, Expires  uint64 // core
	Delivered                       uint64 // end-to-end deliveries at head-ends
	Messages                        uint64 // netsim: classical messages sent
	// Arrivals are circuits offered; each ends admitted, refused at
	// admission, or unroutable (no path meets its fidelity target).
	Arrivals, Admitted, Rejected, Unroutable uint64
	Placements                               uint64 // routing: circuits planned by the controller
}

// msgCounts are classical messages by kind, seen by the counting handler a
// traced replica registers on every node.
type msgCounts struct {
	Track, Signaling uint64
}

// sample is one replica's measurement. Times are host seconds.
type sample struct {
	job      int
	setupS   float64 // Scenario.Run entry until traffic opens
	trafficS float64 // traffic opening until Run returns
	simS     float64 // simulated traffic seconds, Metrics.End − Start
	alloc    uint64  // heap bytes allocated during Run
	mallocs  uint64
	gcs      uint32
	c        counters
	msgs     msgCounts
}

// wallS is the replica's host seconds inside Scenario.Run.
func (s sample) wallS() float64 { return s.setupS + s.trafficS }

// replicaOpts select what a replica run records on top of its timing.
type replicaOpts struct {
	// trace registers the message-counting handler.
	trace bool
	// setupOnly stops the run when traffic opens: only set-up is timed.
	setupOnly bool
}

// stampOpen is a pass-through workload that records when the scenario
// first asks it for its immediate requests — the moment traffic opens.
type stampOpen struct {
	qnet.Workload
	open *time.Time
}

// Immediate implements qnet.Workload.
func (s stampOpen) Immediate(ctx *qnet.WorkloadContext) []qnet.Request {
	if s.open.IsZero() {
		*s.open = time.Now()
	}
	return s.Workload.Immediate(ctx)
}

// churnOnly reports whether every circuit arrives on the simulation clock,
// so traffic opens as soon as the topology is built.
func churnOnly(sc qnet.Scenario) bool {
	for _, c := range sc.Circuits {
		if c.ArriveAt == 0 && c.Arrival == nil {
			return false
		}
	}
	return true
}

// runReplica runs one scenario and measures it. A panic inside the
// simulation is returned as an error, so one bad replica fails its check
// instead of the process.
func runReplica(job int, sc qnet.Scenario, o replicaOpts) (s sample, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	s.job = job
	var open time.Time
	circuits := make([]qnet.CircuitSpec, len(sc.Circuits))
	manual := uint64(0)
	for i, c := range sc.Circuits {
		if c.Workload != nil {
			c.Workload = stampOpen{c.Workload, &open}
		}
		if c.Plan != nil {
			manual++
		}
		circuits[i] = c
	}
	sc.Circuits = circuits
	churn := churnOnly(sc)
	sc.Setup = func(net *qnet.Network) {
		if churn {
			open = time.Now()
		}
		if o.trace {
			countMessages(net, &s.msgs)
		}
	}
	if o.setupOnly {
		// A cancelled context stops the run loop before its first traffic
		// event; everything before it, set-up included, runs as usual.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		sc.Context = ctx
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := sc.Run()
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return s, err
	}
	if open.IsZero() {
		return s, errors.New("traffic never opened")
	}
	s.setupS = open.Sub(t0).Seconds()
	s.trafficS = t1.Sub(open).Seconds()
	s.alloc = m1.TotalAlloc - m0.TotalAlloc
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.gcs = m1.NumGC - m0.NumGC
	if o.setupOnly {
		return s, nil
	}
	s.simS = res.Metrics.End.Sub(res.Metrics.Start).Seconds()
	s.c = countersOf(res, manual)
	return s, check(s.c)
}

// countersOf reads a finished replica's counters. manual is the number of
// circuits installed from hand-built plans, which bypass the controller.
func countersOf(res *qnet.Result, manual uint64) counters {
	net, m := res.Net, res.Metrics
	c := counters{
		Events:   net.Sim.Processed(),
		Messages: m.ClassicalMessages,
		Admitted: uint64(m.Admitted),
		Rejected: uint64(m.RejectedAtAdmission),
	}
	engines := net.Fabric.All()
	links := make([]string, 0, len(engines))
	for name := range engines {
		links = append(links, name)
	}
	sort.Strings(links)
	for _, name := range links {
		st := engines[name].Stats()
		c.Rounds += st.PairsDelivered
		c.Attempts += st.Attempts
		c.RoundsAborted += st.RoundsAborted
	}
	for _, id := range net.NodeIDs() {
		st := m.NodeStats[id]
		c.Swaps += st.Swaps
		c.CutoffDiscards += st.Discards
		c.Expires += st.ExpiresSent
	}
	for _, cm := range m.Circuits {
		c.Delivered += uint64(cm.Delivered)
		if cm.PendingArrival {
			continue
		}
		c.Arrivals++
		if !cm.Established && !cm.AdmissionRejected && cm.Err != "" {
			c.Unroutable++
		}
	}
	c.Placements = c.Arrivals - manual
	return c
}

// check applies the per-replica correctness checks. The scenario's
// admission counters must account for every arrival its per-circuit
// records show.
func check(c counters) error {
	switch {
	case c.Delivered == 0:
		return errors.New("delivered no pairs")
	case c.Delivered > c.Rounds:
		return fmt.Errorf("delivered %d pairs from %d link rounds", c.Delivered, c.Rounds)
	case c.Admitted+c.Rejected+c.Unroutable != c.Arrivals:
		return fmt.Errorf("admitted %d + rejected %d + unroutable %d != %d arrivals",
			c.Admitted, c.Rejected, c.Unroutable, c.Arrivals)
	}
	return nil
}

// countMessages registers a handler on every node that counts TRACK and
// signalling messages. It only reads the message, so the simulation's event
// order and random draws are untouched.
func countMessages(net *qnet.Network, mc *msgCounts) {
	h := func(_ netsim.NodeID, msg netsim.Message) {
		switch msg.(type) {
		case core.TrackMsg:
			mc.Track++
		case signaling.SetupMsg, signaling.ConfirmMsg, signaling.TeardownMsg, signaling.UpdateMsg:
			mc.Signaling++
		}
	}
	for _, id := range net.NodeIDs() {
		net.Classical.Handle(netsim.NodeID(id), h)
	}
}
