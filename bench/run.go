package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"qnp/internal/runner"
)

// setupSamples is how many set-up timings each job gets: set-up-only runs
// top up what the passes gave, within setupBudgetShare of the measuring
// time, so set-up times too small to time once still get a median.
const (
	setupSamples     = 9
	setupBudgetShare = 0.1
)

// profileHz is the traced replay's CPU sampling rate.
const profileHz = 500

// measurement is one workload run: whole passes over the workload's batch,
// repeated while the measuring time lasts. Pass 0 gives the counts and the
// digest; every later pass repeats it exactly and must reproduce each
// replica's counters.
type measurement struct {
	w    workload
	seed int64
	// samples are the successful replicas in run order.
	samples []sample
	// first holds each job's pass-0 replica (nil if it failed).
	first []*sample
	// setups are each job's set-up timings, from passes and top-ups.
	setups [][]float64
	// attempted and failed count every scenario run and ladder; failures
	// keeps the first few reasons.
	attempted, failed int
	failures          []string
}

// note counts one attempted operation and records it as failed when err is
// set.
func (m *measurement) note(what string, err error) {
	m.attempted++
	if err == nil {
		return
	}
	m.failed++
	if len(m.failures) < 5 {
		m.failures = append(m.failures, fmt.Sprintf("%s %s: %v", m.w.name, what, err))
	}
}

// measure runs whole passes over w's batch: at least minPasses, and
// another whenever the last pass's duration still fits in budget.
func measure(w workload, seed int64, budget time.Duration, minPasses int) *measurement {
	m := &measurement{w: w, seed: seed, first: make([]*sample, w.jobs), setups: make([][]float64, w.jobs)}
	start := time.Now()
	for pass := 0; ; pass++ {
		passStart := time.Now()
		for j := 0; j < w.jobs; j++ {
			s, err := runReplica(j, w.scenario(j, runner.DeriveSeed(seed, j)), replicaOpts{})
			if err == nil && pass > 0 && m.first[j] != nil && s.c != m.first[j].c {
				err = fmt.Errorf("repeat counters %+v differ from pass 0 %+v", s.c, m.first[j].c)
			}
			m.note(fmt.Sprintf("job %d", j), err)
			if err != nil {
				continue
			}
			m.samples = append(m.samples, s)
			m.setups[j] = append(m.setups[j], s.setupS)
			if pass == 0 {
				m.first[j] = &s
			}
		}
		if pass+1 >= minPasses && time.Since(start)+time.Since(passStart) > budget {
			break
		}
	}
	m.sampleSetup(time.Duration(setupBudgetShare * float64(budget)))
	return m
}

// sampleSetup tops each job up to setupSamples set-up timings with
// set-up-only runs, round-robin over the jobs, until the budget is spent.
func (m *measurement) sampleSetup(budget time.Duration) {
	start := time.Now()
	for round := 0; round < setupSamples && time.Since(start) < budget; round++ {
		for j := 0; j < m.w.jobs && time.Since(start) < budget; j++ {
			if len(m.setups[j]) >= setupSamples {
				continue
			}
			s, err := runReplica(j, m.w.scenario(j, runner.DeriveSeed(m.seed, j)), replicaOpts{setupOnly: true})
			m.note(fmt.Sprintf("job %d set-up", j), err)
			if err != nil {
				continue
			}
			m.setups[j] = append(m.setups[j], s.setupS)
		}
	}
}

// batchMin sums, over the batch's jobs, the smallest f among each job's
// repeats: the value of one full batch.
func (m *measurement) batchMin(f func(sample) float64) float64 {
	per := make([]float64, m.w.jobs)
	seen := make([]bool, m.w.jobs)
	for _, s := range m.samples {
		if v := f(s); !seen[s.job] || v < per[s.job] {
			per[s.job], seen[s.job] = v, true
		}
	}
	total := 0.0
	for _, v := range per {
		total += v
	}
	return total
}

// endToEnd returns the user-facing metrics of one batch. Host time is each
// replica's fastest repeat: the repeats run identical inputs, so anything
// slower is interference from outside the simulation.
func (m *measurement) endToEnd() map[string]float64 {
	setup := 0.0
	for _, xs := range m.setups {
		if len(xs) > 0 {
			setup += median(xs)
		}
	}
	traffic := m.batchMin(func(s sample) float64 { return s.trafficS })
	simS := m.batchMin(func(s sample) float64 { return s.simS })
	var ru syscall.Rusage
	rss := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rss = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return map[string]float64{
		"wall_s":      m.batchMin(sample.wallS),
		"setup_s":     setup,
		"sim_rate":    ratio(simS, traffic),
		"alloc_mb":    m.batchMin(func(s sample) float64 { return float64(s.alloc) }) / 1e6,
		"peak_rss_mb": rss,
	}
}

// firstPass returns the first-pass replicas in job order, or false if any
// of them failed.
func (m *measurement) firstPass() ([]sample, bool) {
	out := make([]sample, 0, m.w.jobs)
	for _, s := range m.first {
		if s == nil {
			return nil, false
		}
		out = append(out, *s)
	}
	return out, true
}

// digest fingerprints the first pass: SHA-256 over every replica's
// counters in job order.
func digest(pass []sample) string {
	h := sha256.New()
	for _, s := range pass {
		fmt.Fprintf(h, "%d %+v\n", s.job, s.c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traced replays the first pass with the message counters on and a CPU
// profile running, and returns the replay and its decoded profile. A
// replica that fails, or does not reproduce its untraced counters, is
// recorded as failed; the error reports a profile that could not be taken.
func (m *measurement) traced(pass []sample) ([]sample, *profile, error) {
	var buf bytes.Buffer
	// pprof samples at a fixed 100 Hz, too few for stable layer shares
	// over a pass of a few seconds; a rate set first takes precedence, at
	// the cost of the runtime's one-line warning that it cannot be set
	// again.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, fmt.Errorf("start cpu profile: %w", err)
	}
	out := make([]sample, 0, len(pass))
	for _, u := range pass {
		s, err := runReplica(u.job, m.w.scenario(u.job, runner.DeriveSeed(m.seed, u.job)), replicaOpts{trace: true})
		if err == nil && s.c != u.c {
			err = fmt.Errorf("traced counters %+v differ from untraced %+v", s.c, u.c)
		}
		m.note(fmt.Sprintf("job %d traced", u.job), err)
		if err == nil {
			out = append(out, s)
		}
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return out, nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	return out, prof, nil
}

// perLayer returns the traced run's per-layer metrics for this workload:
// exact counts over the first pass, runtime counts, the profile's layer
// shares and the tracing overhead.
func perLayer(pass, replay []sample, prof *profile) map[string]float64 {
	var c counters
	var msgs msgCounts
	var simS, untracedS, tracedS float64
	var gcs, mallocs uint64
	for _, s := range pass {
		c.Events += s.c.Events
		c.Rounds += s.c.Rounds
		c.Attempts += s.c.Attempts
		c.RoundsAborted += s.c.RoundsAborted
		c.Swaps += s.c.Swaps
		c.CutoffDiscards += s.c.CutoffDiscards
		c.Expires += s.c.Expires
		c.Delivered += s.c.Delivered
		c.Messages += s.c.Messages
		c.Placements += s.c.Placements
		c.Rejected += s.c.Rejected
		simS += s.simS
		untracedS += s.wallS()
		gcs += uint64(s.gcs)
		mallocs += s.mallocs
	}
	for _, s := range replay {
		msgs.Track += s.msgs.Track
		msgs.Signaling += s.msgs.Signaling
		tracedS += s.wallS()
	}
	out := map[string]float64{
		"sim.events":                   float64(c.Events),
		"sim.events_per_sim_s":         ratio(float64(c.Events), simS),
		"linklayer.rounds":             float64(c.Rounds),
		"linklayer.attempts_per_round": ratio(float64(c.Attempts), float64(c.Rounds)),
		"linklayer.rounds_aborted":     float64(c.RoundsAborted),
		"core.swaps":                   float64(c.Swaps),
		"core.cutoff_discards":         float64(c.CutoffDiscards),
		"core.expires":                 float64(c.Expires),
		"core.yield":                   ratio(float64(c.Delivered), float64(c.Rounds)),
		"netsim.messages":              float64(c.Messages),
		"netsim.track_msgs":            float64(msgs.Track),
		"signaling.msgs":               float64(msgs.Signaling),
		"routing.placements":           float64(c.Placements),
		"routing.reject_frac":          ratio(float64(c.Rejected), float64(c.Placements)),
		"runtime.gc_cycles":            float64(gcs),
		"runtime.mallocs":              float64(mallocs),
		"trace.overhead":               ratio(tracedS, untracedS) - 1,
	}
	if prof != nil {
		for name, v := range prof.shares() {
			out[name] = v
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile of xs, 0 < p ≤ 1.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
