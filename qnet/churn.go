package qnet

import (
	"math/rand"

	"qnp/internal/sim"
)

// Random-stream families. Every scenario-level stream is derived from the
// replica seed as seed*runner.SeedStride + offset; the physics stream is
// the bare seed itself. Engine streams (selection, churn) take the even
// offsets and per-circuit workload streams take the odd offsets 2i+1, so no
// circuit index can ever collide with an engine stream. (The selection
// stream previously sat at the odd offset 104729, which circuit index 52364
// would have shared — a real hazard for million-user churn scenarios; see
// TestStreamFamiliesDisjoint.) Engine offsets are nonzero so that no seed —
// including replica seed 0, where offset 0 would make seed*Stride+0 == seed
// — can alias an engine stream onto the bare-seed physics stream.
const (
	selectionStreamOffset = 2
	churnStreamOffset     = 4
)

// workloadStreamOffset is circuit i's private workload-stream offset.
func workloadStreamOffset(i int) int64 { return 2*int64(i) + 1 }

// Dist draws one duration for churn scheduling (CircuitSpec.Arrival /
// Holding). Draws come from the scenario's dedicated churn stream —
// deterministic per seed, disjoint from the physics, selection and workload
// streams — one draw per configured field per expanded circuit, in
// expansion order, so churn replicas stay bit-identical for any worker or
// shard count.
type Dist func(churn *rand.Rand) sim.Duration

// Exponential yields exponential durations with the given mean — Poisson
// arrivals when used as an inter-arrival/offset distribution.
func Exponential(mean sim.Duration) Dist {
	return func(rng *rand.Rand) sim.Duration {
		return sim.DurationFromSeconds(rng.ExpFloat64() * mean.Seconds())
	}
}

// Uniform yields durations uniform on [min, max).
func Uniform(min, max sim.Duration) Dist {
	return func(rng *rand.Rand) sim.Duration {
		if max <= min {
			return min
		}
		return min + sim.Duration(rng.Int63n(int64(max-min)))
	}
}
