package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"

	"qnp/internal/asmcheck"
	"qnp/internal/race"
)

// fill adds xs to a fresh aggregate.
func fill(xs []float64) *Agg {
	a := new(Agg)
	for _, x := range xs {
		a.Add(x)
	}
	return a
}

// samples draws a deterministic mixed-scale stream: exponential latencies,
// a heavy tail, and some exact zeros.
func samples(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		switch {
		case i%97 == 0:
			xs[i] = 0
		case i%13 == 0:
			xs[i] = rng.ExpFloat64() * 1e3
		default:
			xs[i] = rng.ExpFloat64() * 1e-2
		}
	}
	return xs
}

// assertIdentical fails unless every summary statistic of got is
// bit-identical to want's.
func assertIdentical(t *testing.T, want, got *Agg, label string) {
	t.Helper()
	if got.Count != want.Count {
		t.Errorf("%s: Count = %d, want %d", label, got.Count, want.Count)
	}
	if got.Min != want.Min || got.Max != want.Max {
		t.Errorf("%s: Min/Max = %v/%v, want %v/%v", label, got.Min, got.Max, want.Min, want.Max)
	}
	if gs, ws := got.Sum(), want.Sum(); gs != ws {
		t.Errorf("%s: Sum = %v, want %v (diff %g)", label, gs, ws, gs-ws)
	}
	if gm, wm := got.Mean(), want.Mean(); gm != wm {
		t.Errorf("%s: Mean = %v, want %v", label, gm, wm)
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if gp, wp := got.Percentile(p), want.Percentile(p); gp != wp {
			t.Errorf("%s: Percentile(%v) = %v, want %v", label, p, gp, wp)
		}
	}
	for _, x := range []float64{0, 1e-3, 0.5, 10, 1e4} {
		if ga, wa := got.CountAtOrAbove(x), want.CountAtOrAbove(x); ga != wa {
			t.Errorf("%s: CountAtOrAbove(%v) = %v, want %v", label, x, ga, wa)
		}
	}
}

// TestMergeSplitInvariance pins the sharded-merge contract: splitting one
// stream into shards and merging the per-shard aggregates — in any
// grouping — yields bit-identical summary statistics to one aggregate fed
// the whole stream. Exercised both below the exact threshold and far past
// it (histogram regime), including the mixed case where some shards have
// spilled and others have not.
func TestMergeSplitInvariance(t *testing.T) {
	for _, n := range []int{30, ExactThreshold - 1, ExactThreshold + 5, 6000} {
		xs := samples(n, 42)
		whole := fill(xs)

		// Three contiguous shards, merged in order.
		third := n / 3
		s1, s2, s3 := fill(xs[:third]), fill(xs[third:2*third]), fill(xs[2*third:])
		leftFold := new(Agg)
		leftFold.Merge(s1)
		leftFold.Merge(s2)
		leftFold.Merge(s3)
		assertIdentical(t, whole, leftFold, "n=30 (s1+s2)+s3")

		// Associativity: group the right pair first.
		right := new(Agg)
		right.Merge(s2)
		right.Merge(s3)
		rightFold := new(Agg)
		rightFold.Merge(s1)
		rightFold.Merge(right)
		assertIdentical(t, whole, rightFold, "s1+(s2+s3)")

		// Commuted order still matches on order-free statistics (all of
		// them are, by design).
		swapped := new(Agg)
		swapped.Merge(s3)
		swapped.Merge(s1)
		swapped.Merge(s2)
		assertIdentical(t, whole, swapped, "s3+s1+s2")
	}
}

// TestMergeEmptyAndNil covers the degenerate merges.
func TestMergeEmptyAndNil(t *testing.T) {
	a := fill([]float64{1, 2, 3})
	a.Merge(nil)
	a.Merge(new(Agg))
	if a.Count != 3 || a.Sum() != 6 {
		t.Fatalf("merge with empty changed state: count %d sum %v", a.Count, a.Sum())
	}
	b := new(Agg)
	b.Merge(a)
	assertIdentical(t, a, b, "empty+full")
}

// TestExactMatchesRunnerRule pins the exact-mode percentile to the
// nearest-rank rule runner.Stats uses: element ⌊p·(n−1)⌋ of the sorted
// sample, p clamped to [0, 1].
func TestExactMatchesRunnerRule(t *testing.T) {
	xs := samples(101, 7)
	a := fill(xs)
	if !a.IsExact() {
		t.Fatal("101 samples should be in exact mode")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{-1, 0, 0.25, 0.5, 0.99, 1, 2, math.NaN()} {
		pc := p
		if !(pc > 0) {
			pc = 0
		} else if pc > 1 {
			pc = 1
		}
		want := sorted[int(pc*float64(len(sorted)-1))]
		if got := a.Percentile(p); got != want {
			t.Errorf("Percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got, want := a.Percentile(0), sorted[0]; got != want {
		t.Errorf("p=0 = %v, want min %v", got, want)
	}
	if got, want := a.Percentile(1), sorted[len(sorted)-1]; got != want {
		t.Errorf("p=1 = %v, want max %v", got, want)
	}
}

// TestHistogramAccuracy bounds the histogram percentile approximation by
// the documented bucket policy: relative error at most
// 1/(2·BucketsPerOctave) plus a bucket width of rank slack.
func TestHistogramAccuracy(t *testing.T) {
	xs := samples(20000, 11)
	a := fill(xs)
	if a.IsExact() {
		t.Fatal("20000 samples should have spilled")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := a.Percentile(p)
		want := sorted[int(p*float64(len(sorted)-1))]
		if want == 0 {
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 2.0/BucketsPerOctave {
			t.Errorf("Percentile(%v) = %v, exact %v, rel err %.4f > %.4f",
				p, got, want, rel, 2.0/BucketsPerOctave)
		}
	}
	// Mean and Sum stay exact in histogram mode.
	var kahan, comp float64
	for _, x := range xs {
		y := x - comp
		s := kahan + y
		comp = (s - kahan) - y
		kahan = s
	}
	if rel := math.Abs(a.Sum()-kahan) / kahan; rel > 1e-12 {
		t.Errorf("Sum = %v, kahan %v", a.Sum(), kahan)
	}
}

// TestExactSumIsCorrectlyRounded checks the expansion sum against cases
// naive summation gets wrong.
func TestExactSumIsCorrectlyRounded(t *testing.T) {
	// fl(0.1) = 0.1 + 5.55e-18, so ten of them total just over 1e16+1 —
	// past the midpoint of [1e16, 1e16+2] (ulp is 2 here), which rounds
	// to 1e16+2. Naive left-to-right summation loses every 0.1 and
	// returns 1e16 exactly.
	a := new(Agg)
	a.Add(1e16)
	for i := 0; i < 10; i++ {
		a.Add(0.1)
	}
	if got, want := a.Sum(), math.Nextafter(1e16, math.Inf(1)); got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
	// Alternating magnitudes that cancel: exact sum is 1.
	b := new(Agg)
	b.Add(1e100)
	b.Add(1)
	b.Add(-1e100)
	if got := b.Sum(); got != 1 {
		t.Errorf("cancellation Sum = %v, want 1", got)
	}
}

// TestJSONRoundTrip: the wire form reproduces every summary statistic
// bit-identically, in both exact and histogram regimes, and a decoded
// aggregate keeps aggregating.
func TestJSONRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 40, 5000} {
		a := fill(samples(n, 3))
		blob, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("n=%d: marshal: %v", n, err)
		}
		b := new(Agg)
		if err := json.Unmarshal(blob, b); err != nil {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
		assertIdentical(t, a, b, "round-trip")
		a.Add(0.25)
		b.Add(0.25)
		assertIdentical(t, a, b, "post-round-trip add")
	}
}

// TestZeroAndNegative: the underflow bucket holds nonpositive samples at
// representative 0; Min stays exact.
func TestZeroAndNegative(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i % 5) // 400 zeros among small ints
	}
	xs[17] = -3
	a := fill(xs)
	if a.Min != -3 {
		t.Errorf("Min = %v, want -3", a.Min)
	}
	if got := a.Percentile(0.05); got != 0 {
		t.Errorf("p05 = %v, want 0 (underflow bucket)", got)
	}
	if got := a.CountAtOrAbove(5); got != 0 {
		t.Errorf("CountAtOrAbove(5) = %d, want 0", got)
	}
	if got := a.CountAtOrAbove(-10); got != int64(len(xs)) {
		t.Errorf("CountAtOrAbove(-10) = %d, want all", got)
	}
}

// TestBucketKeyBounds: every positive float lands in the bucket whose
// bounds contain it, and representatives sit inside their bucket.
func TestBucketKeyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		x := math.Ldexp(0.5+rng.Float64()/2, rng.Intn(60)-30)
		k := bucketKey(x)
		lo, hi := bucketBounds(k)
		if x < lo || x >= hi {
			t.Fatalf("x=%v outside bucket %d [%v, %v)", x, k, lo, hi)
		}
		if mid := bucketMid(k); mid < lo || mid >= hi {
			t.Fatalf("mid %v outside bucket %d [%v, %v)", mid, k, lo, hi)
		}
	}
	// Octave boundaries land in the first sub-bucket of the octave.
	for _, x := range []float64{0.5, 1, 2, 4, 1024} {
		lo, _ := bucketBounds(bucketKey(x))
		if lo != x {
			t.Errorf("bucketBounds(bucketKey(%v)).lo = %v, want %v", x, lo, x)
		}
	}
}

// TestAllocsAggAdd is the constant-memory gate at the aggregate level: a
// warm Agg absorbs a million samples with allocations bounded by the
// histogram's occupied-bucket growth, not the sample count.
func TestAllocsAggAdd(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	rng := rand.New(rand.NewSource(9))
	a := new(Agg)
	for i := 0; i < 2*ExactThreshold; i++ { // warm past the spill
		a.Add(rng.ExpFloat64())
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1_000_000; i++ {
			a.Add(rng.ExpFloat64())
		}
	})
	// The only legal allocations are map growth for newly occupied
	// buckets and rare expansion regrowth — dozens, not millions.
	if allocs > 100 {
		t.Errorf("1e6 adds allocated %v times, want ≤ 100", allocs)
	}
}

// TestNoFusedMultiplyAdd keeps the package's arm64 assembly free of fused
// multiply-adds (see asmcheck).
func TestNoFusedMultiplyAdd(t *testing.T) { asmcheck.NoFusedMultiplyAdd(t) }
