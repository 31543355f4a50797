package runner

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// replicaWork is a stand-in for a simulation replica: a value that depends
// on the seed and replica index alone, with a scheduling-hostile sleep so
// completions land out of order.
func replicaWork(replica int, seed int64) float64 {
	time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
	return float64(seed)*1e-6 + float64(replica)
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, 0) != SeedStride {
		t.Errorf("DeriveSeed(1,0) = %d", DeriveSeed(1, 0))
	}
	// Distinct (base, replica) pairs must give distinct seeds for sane sizes.
	seen := map[int64]bool{}
	for base := int64(1); base <= 8; base++ {
		for r := 0; r < 100; r++ {
			s := DeriveSeed(base, r)
			if seen[s] {
				t.Fatalf("seed collision at base=%d replica=%d", base, r)
			}
			seen[s] = true
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	const n = 64
	var want []float64
	for _, workers := range []int{1, 2, 3, runtime.NumCPU(), 4 * runtime.NumCPU()} {
		got, err := Run(Options{Workers: workers, Seed: 42}, n, replicaWork)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestProgressMonotonic(t *testing.T) {
	var mu sync.Mutex
	last := 0
	_, err := Run(Options{Workers: 4, Seed: 1, Progress: func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done != last+1 || total != 32 {
			t.Errorf("progress (%d,%d) after %d", done, total, last)
		}
		last = done
	}}, 32, replicaWork)
	if err != nil {
		t.Fatal(err)
	}
	if last != 32 {
		t.Errorf("final progress %d", last)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	var mu sync.Mutex
	out, err := Run(Options{Workers: 2, Seed: 1, Context: ctx}, 1000, func(replica int, seed int64) float64 {
		mu.Lock()
		ran++
		if ran == 4 {
			cancel()
		}
		mu.Unlock()
		return 1
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 1000 {
		t.Fatalf("len(out) = %d", len(out))
	}
	mu.Lock()
	if ran >= 1000 {
		t.Errorf("cancellation did not stop the run (ran=%d)", ran)
	}
	mu.Unlock()
}

// TestProgressAndPartialResultsUnderCancellation is the regression test
// for the dispatch gate: a replica finishing after cancellation keeps its
// result but must not tick Progress.
func TestProgressAndPartialResultsUnderCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ticks []int
	out, err := Run(Options{Workers: 1, Seed: 1, Context: ctx, Progress: func(done, total int) {
		ticks = append(ticks, done)
	}}, 10, func(replica int, seed int64) int {
		if replica == 2 {
			cancel()
		}
		return replica + 100
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One serial worker: replicas 0 and 1 tick progress; replica 2 runs to
	// completion after cancelling, so its result is recorded but its tick
	// is suppressed; replicas 3+ are never claimed.
	if want := []int{1, 2}; len(ticks) != len(want) || ticks[0] != 1 || ticks[1] != 2 {
		t.Errorf("progress ticks = %v, want %v", ticks, want)
	}
	for i, want := range []int{100, 101, 102, 0, 0} {
		if out[i] != want {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
}

func TestZeroReplicas(t *testing.T) {
	out, err := Run(Options{}, 0, replicaWork)
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestStats(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Percentile(0.5) != 0 || s.CDF(1) != 0 || s.N() != 0 {
		t.Error("zero-value Stats not zero")
	}
	s.Add(5, 1, 3)
	if s.N() != 3 || s.Mean() != 3 {
		t.Errorf("N=%d mean=%v", s.N(), s.Mean())
	}
	if s.Percentile(0.5) != 3 || s.Percentile(0) != 1 || s.Percentile(1) != 5 {
		t.Errorf("percentiles wrong: %v %v %v", s.Percentile(0.5), s.Percentile(0), s.Percentile(1))
	}
	if s.CDF(3) != 1.0/3 || s.CDF(100) != 1 {
		t.Errorf("CDF wrong: %v %v", s.CDF(3), s.CDF(100))
	}
	// Adding after a sorted read keeps aggregates correct.
	s.Add(7)
	if s.Mean() != 4 || s.Percentile(1) != 7 {
		t.Errorf("post-sort Add broken: mean=%v max=%v", s.Mean(), s.Percentile(1))
	}
	if Mean([]float64{2, 4}) != 3 || Percentile([]float64{9, 8, 7}, 0.5) != 8 {
		t.Error("one-shot helpers wrong")
	}
}

// TestPercentileDomainClamp is the regression net for the out-of-domain
// panic: Percentile(p) with p outside [0, 1] used to index past the sorted
// slice. NaN and out-of-range p now clamp to the nearest endpoint.
func TestPercentileDomainClamp(t *testing.T) {
	var s Stats
	s.Add(10, 20, 30)
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 30}, // endpoints stay exact
		{-0.5, 10}, {1.5, 30}, // out-of-domain clamps, no panic
		{math.Inf(-1), 10}, {math.Inf(1), 30},
		{math.NaN(), 10}, // NaN clamps low
	}
	for _, tc := range cases {
		if got := s.Percentile(tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile([]float64{4}, 2); got != 4 {
		t.Errorf("one-shot Percentile(2) = %v, want 4", got)
	}
}
