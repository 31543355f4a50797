package qnet

import (
	"fmt"
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

// DistKind selects a Dist's shape.
type DistKind int

// Distribution kinds.
const (
	// DistFixed always yields Mean.
	DistFixed DistKind = iota
	// DistExponential yields exponential durations with the given Mean —
	// Poisson arrivals when used as an inter-arrival/offset distribution.
	DistExponential
	// DistUniform yields durations uniform on [Min, Max].
	DistUniform
)

// Dist is a duration distribution for churn scheduling
// (CircuitSpec.Arrival / Holding). Draws come from the scenario's dedicated
// churn stream — deterministic per seed, disjoint from the physics,
// selection and workload streams — one draw per configured field per
// expanded circuit, in expansion order, so churn replicas stay
// bit-identical for any worker or shard count.
type Dist struct {
	Kind DistKind
	// Mean parameterises DistFixed (the value) and DistExponential.
	Mean sim.Duration
	// Min and Max bound DistUniform.
	Min, Max sim.Duration
}

// Fixed is the degenerate distribution always yielding d.
func Fixed(d sim.Duration) *Dist { return &Dist{Kind: DistFixed, Mean: d} }

// Exponential yields exponential durations with the given mean.
func Exponential(mean sim.Duration) *Dist { return &Dist{Kind: DistExponential, Mean: mean} }

// Uniform yields durations uniform on [min, max].
func Uniform(min, max sim.Duration) *Dist { return &Dist{Kind: DistUniform, Min: min, Max: max} }

// draw samples the distribution from the churn stream.
func (d *Dist) draw(rng *rand.Rand) sim.Duration {
	switch d.Kind {
	case DistExponential:
		return sim.DurationFromSeconds(rng.ExpFloat64() * d.Mean.Seconds())
	case DistUniform:
		if d.Max <= d.Min {
			return d.Min
		}
		return d.Min + sim.Duration(rng.Int63n(int64(d.Max-d.Min)))
	default:
		return d.Mean
	}
}

func (d *Dist) String() string {
	switch d.Kind {
	case DistExponential:
		return fmt.Sprintf("Exp(mean %v)", d.Mean)
	case DistUniform:
		return fmt.Sprintf("U[%v, %v]", d.Min, d.Max)
	default:
		return fmt.Sprintf("Fixed(%v)", d.Mean)
	}
}
