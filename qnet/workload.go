package qnet

import (
	"fmt"
	"math/rand"

	"qnp/internal/sim"
)

// A Workload drives requests onto one scenario circuit. Implementations
// must be stateless values — the same workload value may drive several
// circuits (selector expansion) and several replicas concurrently; all
// per-run state lives in the WorkloadContext.
//
// Traffic opens in two phases. Immediate returns the requests submitted
// synchronously the moment traffic starts; the scenario engine interleaves
// them breadth-first across circuits (request k of every circuit, in spec
// order, before request k+1 of any), so equal-time batches load the network
// exactly like a round-robin submission loop. Start then schedules timed
// arrivals on the simulation clock. Either phase may be a no-op.
type Workload interface {
	Immediate(ctx *WorkloadContext) []Request
	Start(ctx *WorkloadContext)
}

// WorkloadContext is the per-circuit runtime a workload drives: the live
// circuit, the simulation clock, a workload-private random stream (separate
// from the physics stream, so traffic randomness never perturbs the
// hardware model), and the submission hook that feeds request bookkeeping
// into the scenario's Metrics.
type WorkloadContext struct {
	Net     *Network
	Circuit *Circuit
	Sim     *sim.Simulation
	// Rand is deterministic per (scenario seed, circuit index) and disjoint
	// from the simulation's physics stream.
	Rand *rand.Rand
	// Start is the virtual time this circuit's traffic opened; Horizon the
	// scenario's run budget from there.
	Start   sim.Time
	Horizon sim.Duration

	cm *CircuitMetrics
	// stopped marks a departed (torn-down) circuit: timed workload chains
	// stop re-arming and any still-in-flight submission becomes a no-op.
	stopped bool
}

// open reports whether a timed workload chain should re-arm: the circuit is
// still up and the scenario horizon has not elapsed.
func (w *WorkloadContext) open() bool {
	return !w.stopped && w.Sim.Now().Sub(w.Start) < w.Horizon
}

// Submit sends a request on the circuit and records it in the scenario
// metrics (submission time, completion, rejection). The request's Circuit
// field is filled in automatically.
func (w *WorkloadContext) Submit(req Request) error {
	w.cm.noteSubmit(&RequestMetrics{ID: req.ID, SubmittedAt: w.Sim.Now(), Pairs: req.NumPairs})
	return w.Circuit.Submit(req)
}

// mustSubmit panics on submission errors — inside timed arrivals there is
// no caller left to return the error to, and a failed submit (duplicate ID,
// torn-down circuit) is a scenario bug, not a protocol outcome. Submissions
// racing a scenario-driven departure (an arrival event already queued when
// the circuit tore down) are dropped silently: departure is an outcome, not
// a bug.
func (w *WorkloadContext) mustSubmit(req Request) {
	if w.stopped {
		return
	}
	if err := w.Submit(req); err != nil {
		panic(fmt.Sprintf("qnet: workload submit on circuit %q: %v", w.Circuit.ID, err))
	}
}

// requestID names a workload's k-th request: r0, r1, ...
func requestID(k int) RequestID { return RequestID(fmt.Sprintf("r%d", k)) }

// Batch submits an explicit request list the moment traffic opens — the
// fully general immediate workload.
type Batch struct {
	Requests []Request
}

// Immediate returns the configured requests.
func (b Batch) Immediate(*WorkloadContext) []Request { return b.Requests }

// Start is a no-op.
func (b Batch) Start(*WorkloadContext) {}

// ContinuousKeep saturates the circuit with one open-ended KEEP request —
// the paper's long-running background traffic ("we submit a request for
// infinite pairs").
type ContinuousKeep struct {
	// ID names the request (default "keep").
	ID RequestID
}

// Immediate returns the single open-ended request.
func (c ContinuousKeep) Immediate(*WorkloadContext) []Request {
	id := c.ID
	if id == "" {
		id = "keep"
	}
	return []Request{{ID: id, Type: Keep, NumPairs: 0}}
}

// Start is a no-op.
func (c ContinuousKeep) Start(*WorkloadContext) {}

// KeepBatch submits Count simultaneous KEEP requests of Pairs pairs each
// when traffic opens, named r0, r1, ...
type KeepBatch struct {
	Count int
	Pairs int
}

// Immediate returns the request batch.
func (b KeepBatch) Immediate(*WorkloadContext) []Request {
	reqs := make([]Request, b.Count)
	for k := range reqs {
		reqs[k] = Request{ID: requestID(k), Type: Keep, NumPairs: b.Pairs}
	}
	return reqs
}

// Start is a no-op.
func (b KeepBatch) Start(*WorkloadContext) {}

// IntervalKeep issues a Pairs-pair KEEP request every Interval, starting
// immediately, for the whole scenario horizon — the paper's constant-rate
// offered load (Fig. 9).
type IntervalKeep struct {
	Interval sim.Duration
	Pairs    int
}

// Immediate is a no-op.
func (w IntervalKeep) Immediate(*WorkloadContext) []Request { return nil }

// Start schedules the arrival chain.
func (w IntervalKeep) Start(ctx *WorkloadContext) {
	if w.Interval <= 0 {
		return
	}
	k := 0
	var issue func()
	issue = func() {
		ctx.mustSubmit(Request{ID: requestID(k), Type: Keep, NumPairs: w.Pairs})
		k++
		if ctx.open() {
			ctx.Sim.Schedule(w.Interval, issue)
		}
	}
	ctx.Sim.Schedule(0, issue)
}

// PoissonKeep issues Pairs-pair KEEP requests as a Poisson process with the
// given mean inter-arrival time, drawn from the workload-private stream.
type PoissonKeep struct {
	Mean  sim.Duration
	Pairs int
}

// Immediate is a no-op.
func (w PoissonKeep) Immediate(*WorkloadContext) []Request { return nil }

// Start schedules the arrival chain.
func (w PoissonKeep) Start(ctx *WorkloadContext) {
	if w.Mean <= 0 {
		return
	}
	gap := func() sim.Duration {
		return sim.DurationFromSeconds(ctx.Rand.ExpFloat64() * w.Mean.Seconds())
	}
	k := 0
	var issue func()
	issue = func() {
		ctx.mustSubmit(Request{ID: requestID(k), Type: Keep, NumPairs: w.Pairs})
		k++
		if ctx.open() {
			ctx.Sim.Schedule(gap(), issue)
		}
	}
	ctx.Sim.Schedule(gap(), issue)
}

// OnOffKeep alternates On-long bursts of interval arrivals with Off-long
// silences — the classic bursty source.
type OnOffKeep struct {
	On, Off  sim.Duration
	Interval sim.Duration
	Pairs    int
}

// Immediate is a no-op.
func (w OnOffKeep) Immediate(*WorkloadContext) []Request { return nil }

// Start schedules the burst chain.
func (w OnOffKeep) Start(ctx *WorkloadContext) {
	if w.Interval <= 0 || w.On <= 0 {
		return
	}
	period := w.On + w.Off
	k := 0
	var tick func()
	tick = func() {
		elapsed := ctx.Sim.Now().Sub(ctx.Start)
		if elapsed >= ctx.Horizon || ctx.stopped {
			return
		}
		if pos := elapsed % period; pos < w.On {
			ctx.mustSubmit(Request{ID: requestID(k), Type: Keep, NumPairs: w.Pairs})
			k++
			ctx.Sim.Schedule(w.Interval, tick)
			return
		}
		// In the silence: sleep to the next burst start.
		next := (elapsed/period + 1) * period
		ctx.Sim.Schedule(next-elapsed, tick)
	}
	ctx.Sim.Schedule(0, tick)
}

// MeasureStream is the QKD-style measure-directly workload: one request,
// "measure", whose pairs are measured at both ends in the Z basis the
// moment they are ready (§3.1 "measure directly"). A Batch carries any
// other basis or request ID.
type MeasureStream struct {
	// Pairs is the number of rounds; 0 with Rate set streams open-endedly.
	Pairs int
	// Rate, for open-ended streams, is the requested pairs/second — the
	// policed quantity under EER enforcement.
	Rate float64
}

// Immediate returns the measurement request.
func (m MeasureStream) Immediate(*WorkloadContext) []Request {
	return []Request{{ID: "measure", Type: Measure, NumPairs: m.Pairs, Rate: m.Rate}}
}

// Start is a no-op.
func (m MeasureStream) Start(*WorkloadContext) {}
