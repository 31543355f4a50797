package runner

import "sort"

// Stats is an order-stable aggregator for replica results: feed it values
// in replica order (e.g. from a Run result slice) and read the
// mean, percentiles, or the empirical CDF. The zero value is ready to use.
type Stats struct {
	xs     []float64
	sum    float64
	sorted bool
}

// Add appends values in arrival order.
func (s *Stats) Add(xs ...float64) {
	s.xs = append(s.xs, xs...)
	for _, x := range xs {
		s.sum += x
	}
	s.sorted = false
}

// N reports how many values were added.
func (s *Stats) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, 0 when empty.
func (s *Stats) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Percentile returns the p-quantile by the nearest-rank rule the
// experiment suite has always used: element ⌊p·(n−1)⌋ of the sorted
// sample. p is clamped to [0, 1] (NaN clamps to 0) — out-of-domain
// p used to index out of range and panic. Returns 0 when empty.
func (s *Stats) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !(p > 0) { // also catches NaN
		p = 0
	} else if p > 1 {
		p = 1
	}
	xs := s.Sorted()
	return xs[int(p*float64(len(xs)-1))]
}

// CDF evaluates the empirical distribution at x: the fraction of samples
// strictly below x (SearchFloat64s semantics, matching Fig. 5).
func (s *Stats) CDF(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	xs := s.Sorted()
	return float64(sort.SearchFloat64s(xs, x)) / float64(len(xs))
}

// Sorted returns the samples in ascending order. The slice is owned by the
// aggregator; callers must not modify it.
func (s *Stats) Sorted() []float64 {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	return s.xs
}

// Mean is the one-shot form of Stats.Mean.
func Mean(xs []float64) float64 {
	var s Stats
	s.Add(xs...)
	return s.Mean()
}

// Percentile is the one-shot form of Stats.Percentile.
func Percentile(xs []float64, p float64) float64 {
	var s Stats
	s.Add(xs...)
	return s.Percentile(p)
}
