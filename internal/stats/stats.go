// Package stats provides Agg, a mergeable constant-memory aggregate for
// metric sample streams: running count/min/max, an exactly-rounded running
// sum, and a fixed-bucket log-linear histogram with an exact-sample
// fallback below a size threshold.
//
// Agg exists to make simulation metrics O(1) in the number of samples: a
// billion-delivery run costs the same metrics memory as a ten-delivery one
// (qnet feeds every run's delivery times, latencies and fidelities through
// Agg; its MetricsStreaming mode only drops the per-record slices kept
// alongside).
//
// # Determinism and merging
//
// Aggregation is exact where it can be and deterministic everywhere:
//
//   - Count, Min and Max are exact.
//   - Sum (and therefore Mean) is the correctly rounded value of the exact
//     real sum, independent of add and merge order: the running sum is kept
//     as a non-overlapping floating-point expansion (Shewchuk's
//     GROW-EXPANSION), which represents the real-valued total without
//     rounding error; Sum rounds that exact total once.
//   - Histogram bucket boundaries are fixed properties of the value, never
//     of the data, so bucket counts are plain integer sums.
//
// Consequently Merge is associative and commutative up to bit-identical
// summary statistics: splitting one sample stream into any number of
// parts and merging the per-part aggregates (in any grouping) yields the
// same Count, Min, Max, Sum, Mean, Percentile and CountAtOrAbove results as
// one aggregate fed the whole stream. qnet's network-wide latency summary
// (merged over circuits) and the city study's percentiles (merged over
// replicas) rely on this.
//
// # Exactness of queries
//
// While Count ≤ ExactThreshold samples are buffered verbatim and every
// query is exact (Percentile uses the same nearest-rank rule as
// runner.Stats). Past the threshold samples spill into the histogram and
// Percentile and CountAtOrAbove become approximate with bounded relative
// error (see bucket policy below); Count, Min, Max, Sum and Mean stay
// exact at any size. IsExact reports which regime an aggregate is in.
//
// # Bucket policy
//
// The histogram is log-linear over positive values, HDR-histogram style:
// each power-of-two octave [2^(e-1), 2^e) splits into BucketsPerOctave
// equal-width buckets, so a bucket's relative width is 1/BucketsPerOctave
// (≈3.1%) of its value and a bucket-midpoint estimate is off by at most
// half that (≈1.6%). Bucket coordinates depend only on the sample value,
// so any two aggregates share the same bucket grid by construction. Zero
// and negative samples share one underflow bucket represented as 0 — the
// intended sample domain is nonnegative (times, latencies, fidelities);
// Min still records the exact minimum. Buckets are stored sparsely, so
// memory is bounded by the number of distinct occupied buckets (the
// sample range), not the sample count.
//
// Samples must be finite (no NaN/±Inf): aggregates of non-finite values
// do not round-trip through JSON and have no meaningful histogram bucket.
package stats

import (
	"math"
	"math/big"
	"sort"
)

// ExactThreshold is the sample count up to which an Agg buffers raw
// samples and answers every query exactly; past it, samples live in the
// histogram. 512 samples ≈ 4 KiB — small enough to stay "constant memory"
// per aggregate, large enough that most per-circuit series never
// approximate at all.
const ExactThreshold = 512

// BucketsPerOctave is the histogram resolution: buckets per power-of-two
// range. 32 gives ≤ 1/32 relative bucket width.
const BucketsPerOctave = 32

// zeroBucket keys the underflow bucket holding zero and negative samples.
// It sorts below every real bucket key.
const zeroBucket = math.MinInt32

// Agg is a mergeable constant-memory aggregate of a float64 sample
// stream. The zero value is ready to use. The exported fields are its
// whole state, so its JSON encoding round-trips bit-exactly (tests compare
// metrics through it); treat them as read-only and use the methods for
// queries.
type Agg struct {
	// Count is the number of samples added.
	Count int64
	// Min and Max are the exact extremes (meaningful when Count > 0).
	Min float64
	Max float64
	// SumParts is the running sum as a non-overlapping floating-point
	// expansion in increasing-magnitude order; its components sum to the
	// exact real total. Read it through Sum.
	SumParts []float64 `json:",omitempty"`
	// Samples buffers the raw stream while Count ≤ ExactThreshold (exact
	// mode); nil after spilling into Buckets.
	Samples []float64 `json:",omitempty"`
	// Buckets holds sparse histogram counts keyed by bucket index once
	// the exact buffer has spilled.
	Buckets map[int]int64 `json:",omitempty"`
}

// Add folds one sample into the aggregate.
func (a *Agg) Add(x float64) {
	if a.Count == 0 || x < a.Min {
		a.Min = x
	}
	if a.Count == 0 || x > a.Max {
		a.Max = x
	}
	a.Count++
	a.SumParts = growExpansion(a.SumParts, x)
	if a.Buckets == nil {
		if a.Count <= ExactThreshold {
			a.Samples = append(a.Samples, x)
			return
		}
		a.spill()
	}
	a.Buckets[bucketKey(x)]++
}

// Merge folds another aggregate into this one. Merging the pieces of a
// split stream (in any grouping or order) yields bit-identical summary
// statistics to aggregating the whole stream; see the package comment.
func (a *Agg) Merge(b *Agg) {
	if b == nil || b.Count == 0 {
		return
	}
	if a.Count == 0 || b.Min < a.Min {
		a.Min = b.Min
	}
	if a.Count == 0 || b.Max > a.Max {
		a.Max = b.Max
	}
	a.Count += b.Count
	for _, p := range b.SumParts {
		a.SumParts = growExpansion(a.SumParts, p)
	}
	if a.Buckets == nil && b.Buckets == nil && a.Count <= ExactThreshold {
		a.Samples = append(a.Samples, b.Samples...)
		return
	}
	if a.Buckets == nil {
		a.spill()
	}
	for k, c := range b.Buckets {
		a.Buckets[k] += c
	}
	for _, x := range b.Samples {
		a.Buckets[bucketKey(x)]++
	}
}

// spill moves the exact buffer into the histogram.
func (a *Agg) spill() {
	a.Buckets = make(map[int]int64, len(a.Samples))
	for _, x := range a.Samples {
		a.Buckets[bucketKey(x)]++
	}
	a.Samples = nil
}

// IsExact reports whether the aggregate still holds its raw samples, so
// Percentile and CountAtOrAbove are exact rather than
// histogram-approximated.
func (a *Agg) IsExact() bool { return a.Buckets == nil }

// Sum returns the correctly rounded value of the exact real sum of every
// sample, independent of add/merge order. The expansion components are
// totalled in extended precision (their combined magnitude window fits
// well inside sumPrec bits, so the big.Float additions are exact) and
// rounded to float64 once.
func (a *Agg) Sum() float64 {
	switch len(a.SumParts) {
	case 0:
		return 0
	case 1:
		return a.SumParts[0]
	}
	acc := new(big.Float).SetPrec(sumPrec)
	tmp := new(big.Float).SetPrec(sumPrec)
	for _, p := range a.SumParts {
		acc.Add(acc, tmp.SetFloat64(p))
	}
	f, _ := acc.Float64()
	return f
}

// sumPrec comfortably covers the exponent window of any sum of float64s
// (subnormal 2^-1074 up to overflow 2^1024, plus carry headroom).
const sumPrec = 2240

// Mean returns the arithmetic mean, 0 when empty. Exact-sum based, so
// bit-identical however the stream was split and merged.
func (a *Agg) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum() / float64(a.Count)
}

// Percentile returns the p-quantile by the nearest-rank rule runner.Stats
// uses: the sample of rank ⌊p·(n−1)⌋. p is clamped to [0, 1]; returns 0
// when empty. Exact below ExactThreshold; past it the ranked sample's
// bucket midpoint, within ≈1/(2·BucketsPerOctave) relative error.
func (a *Agg) Percentile(p float64) float64 {
	if a.Count == 0 {
		return 0
	}
	if !(p > 0) { // clamps NaN too
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := int64(p * float64(a.Count-1))
	if a.IsExact() {
		return a.sorted()[rank]
	}
	var cum int64
	for _, k := range a.sortedKeys() {
		cum += a.Buckets[k]
		if cum > rank {
			return bucketMid(k)
		}
	}
	return a.Max // unreachable: bucket counts total Count
}

// CountAtOrAbove counts samples ≥ x. Exact below ExactThreshold; past it
// whole buckets above x count fully and the bucket straddling x
// contributes a linearly interpolated share.
func (a *Agg) CountAtOrAbove(x float64) int64 {
	if a.Count == 0 {
		return 0
	}
	if a.IsExact() {
		var n int64
		for _, s := range a.Samples {
			if s >= x {
				n++
			}
		}
		return n
	}
	return a.countAtOrAbove(x)
}

// countAtOrAbove is the histogram path of CountAtOrAbove.
func (a *Agg) countAtOrAbove(x float64) int64 {
	if x <= a.Min {
		return a.Count
	}
	if x > a.Max {
		return 0
	}
	var n int64
	for k, c := range a.Buckets {
		lo, hi := bucketBounds(k)
		switch {
		case lo >= x:
			n += c
		case hi > x:
			// Straddling bucket: assume a uniform spread inside it.
			n += int64(math.Round(float64(c) * (hi - x) / (hi - lo)))
		}
	}
	return n
}

// sorted returns the exact buffer in ascending order (copying, so
// Samples keeps its add order).
func (a *Agg) sorted() []float64 {
	xs := append([]float64(nil), a.Samples...)
	sort.Float64s(xs)
	return xs
}

// sortedKeys returns the occupied bucket keys in ascending value order.
func (a *Agg) sortedKeys() []int {
	keys := make([]int, 0, len(a.Buckets))
	for k := range a.Buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// bucketKey maps a sample to its histogram bucket: BucketsPerOctave
// equal-width buckets per power-of-two octave, zero/negative samples in
// the shared underflow bucket. Depends only on x, never on prior data.
func bucketKey(x float64) int {
	if x <= 0 {
		return zeroBucket
	}
	frac, exp := math.Frexp(x) // x = frac·2^exp, frac ∈ [0.5, 1)
	sub := int((frac - 0.5) * (2 * BucketsPerOctave))
	if sub >= BucketsPerOctave { // guard the frac→1 boundary
		sub = BucketsPerOctave - 1
	}
	return exp*BucketsPerOctave + sub
}

// bucketBounds returns bucket k's half-open value range [lo, hi).
func bucketBounds(k int) (lo, hi float64) {
	if k == zeroBucket {
		return math.Inf(-1), 0
	}
	exp := k / BucketsPerOctave
	sub := k - exp*BucketsPerOctave
	if sub < 0 { // floor division for negative exponents
		exp--
		sub += BucketsPerOctave
	}
	// The quotients compile to products; float64 rounds each before the
	// sum, so arm64 cannot fuse them into a multiply-add.
	lo = math.Ldexp(0.5+float64(float64(sub)/(2*BucketsPerOctave)), exp)
	hi = math.Ldexp(0.5+float64(float64(sub+1)/(2*BucketsPerOctave)), exp)
	return lo, hi
}

// bucketMid returns bucket k's representative value (its midpoint; 0 for
// the underflow bucket).
func bucketMid(k int) float64 {
	if k == zeroBucket {
		return 0
	}
	lo, hi := bucketBounds(k)
	return (lo + hi) / 2
}

// growExpansion adds b to the expansion e (Shewchuk's GROW-EXPANSION):
// the returned components are non-overlapping, carry no rounding error
// (they sum to exactly sum(e)+b), and reuse e's backing array. The
// expansion length is bounded by the number of non-overlapping float64
// components a value can need (≈40), not by the number of adds.
func growExpansion(e []float64, b float64) []float64 {
	out := e[:0]
	q := b
	for _, comp := range e {
		var err float64
		q, err = twoSum(q, comp)
		if err != 0 {
			out = append(out, err)
		}
	}
	if q != 0 {
		out = append(out, q)
	}
	return out
}

// twoSum returns s = fl(a+b) and the exact rounding error err such that
// a + b = s + err (Knuth's branch-free TWO-SUM).
func twoSum(a, b float64) (s, err float64) {
	s = a + b
	bv := s - a
	av := s - bv
	return s, (a - av) + (b - bv)
}
