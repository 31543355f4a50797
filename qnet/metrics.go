package qnet

import (
	"math"

	"qnp/internal/quantum"
	"qnp/internal/sim"
	"qnp/internal/stats"
)

// MetricsMode selects whether a scenario keeps raw per-event records
// alongside the aggregates every run records.
type MetricsMode int

const (
	// MetricsFull (the default) keeps, besides the aggregates, every
	// per-delivery and per-request record: DeliveryTimes, Fidelities,
	// States and Requests hold one entry per event, so any window or
	// distribution can be queried exactly after the run. Memory is
	// O(deliveries + requests).
	MetricsFull MetricsMode = iota
	// MetricsStreaming drops the per-delivery and per-request records and
	// keeps only the mergeable constant-memory aggregates (DeliveryAgg,
	// LatencyAgg, FidelityAgg) that both modes record: memory is
	// independent of the delivery count, which is what makes city-scale
	// runs (hundreds of nodes, millions of deliveries) possible. Counters
	// and mean-style statistics are exact and identical to MetricsFull;
	// percentile, CDF and sub-window queries are histogram-approximated
	// once a series exceeds stats.ExactThreshold samples (see the
	// internal/stats package comment for the bucket policy). Recording
	// mode never changes the simulation itself: the event sequence, and
	// therefore every counter, is bit-identical between modes.
	MetricsStreaming
)

// RequestMetrics records one request submitted through a scenario workload.
type RequestMetrics struct {
	ID          RequestID
	SubmittedAt sim.Time
	CompletedAt sim.Time
	// Done reports head-end completion (OnComplete fired).
	Done bool
	// Rejected reports that policing refused the request (OnReject fired).
	Rejected bool
	// Pairs is the request's NumPairs (0 for open-ended requests).
	Pairs int
}

// CircuitMetrics aggregates what one circuit of a scenario did. Counters
// are taken at the circuit's head-end, the same vantage point the paper's
// evaluation measures from; Expired sums both ends.
type CircuitMetrics struct {
	ID   CircuitID
	Src  string
	Dst  string
	Path []string
	// Established reports whether the circuit installed; when false, Err
	// holds the routing/signalling error and all counters stay zero.
	Established bool
	Err         string
	Plan        Plan
	// CandidateIndex is the k-shortest-path candidate the controller placed
	// the circuit on: 0 is the shortest path (and the only possibility
	// unless CircuitSpec.Candidates > 1), >0 a re-route around contention.
	CandidateIndex int `json:",omitempty"`

	// Lifetime stamps for churn scenarios. ArrivedAt is when the scenario
	// offered the circuit (for pre-installed circuits, when its installation
	// began); EstablishedAt is when its CONFIRM returned to the head-end;
	// TornDownAt is when it departed (zero = it lived to the end of the
	// run). AdmissionRejected marks arrivals that admission control refused
	// — the circuit never installs, Established stays false, and Err holds
	// the allocation-versus-demand detail.
	ArrivedAt         sim.Time
	EstablishedAt     sim.Time
	TornDownAt        sim.Time
	AdmissionRejected bool

	// Delivered counts head-end pair (or measurement) deliveries. In
	// MetricsFull the delivery times ride along in order, and with
	// CircuitSpec.RecordFidelity so do the exact pair fidelity and
	// declared Bell state at each delivery. In MetricsStreaming these
	// slices stay nil; the aggregates below hold the same series in both
	// modes.
	Delivered      int
	DeliveryTimes  []sim.Time          `json:",omitempty"`
	Fidelities     []float64           `json:",omitempty"`
	States         []quantum.BellIndex `json:",omitempty"`
	EarlyDelivered int
	Expired        int
	Rejected       int
	// Requests holds the per-request records (MetricsFull only).
	Requests []*RequestMetrics `json:",omitempty"`

	// Submitted and Completed count workload request submissions and
	// head-end completions — maintained in both modes, they are the
	// request totals that survive MetricsStreaming.
	Submitted int
	Completed int

	// Aggregates (both modes): constant-memory summaries of delivery
	// times (seconds), request completion latencies (seconds) and, with
	// RecordFidelity, per-delivery fidelities. Bell states are not
	// aggregated — a state histogram has no mean, and the per-delivery
	// pairing with fidelity is exactly the record MetricsStreaming drops.
	DeliveryAgg *stats.Agg `json:",omitempty"`
	LatencyAgg  *stats.Agg `json:",omitempty"`
	FidelityAgg *stats.Agg `json:",omitempty"`

	// PendingFinite counts finite requests submitted but not yet
	// completed or rejected — the scenario wait loop's early-stop state.
	PendingFinite int `json:",omitempty"`
	// PendingArrival marks a scheduled (churn) circuit whose arrival has
	// not resolved yet — WaitFor treats it as incomplete. True in a
	// completed run only for arrivals the horizon cut off before they
	// fired.
	PendingArrival bool `json:",omitempty"`

	// reqByID indexes the requests still in flight: submitted, neither
	// completed nor rejected. Memory tracks the in-flight count, not the
	// submission total.
	reqByID map[RequestID]*RequestMetrics
	// records mirrors Metrics.Mode: whether the per-event slices are kept.
	records bool
}

// newCircuitMetrics builds the per-circuit recording state; records keeps
// the per-event slices (MetricsFull) besides the aggregates.
func newCircuitMetrics(id CircuitID, src, dst string, records bool) *CircuitMetrics {
	return &CircuitMetrics{
		ID: id, Src: src, Dst: dst,
		DeliveryAgg: new(stats.Agg),
		LatencyAgg:  new(stats.Agg),
		reqByID:     make(map[RequestID]*RequestMetrics),
		records:     records,
	}
}

// noteSubmit records a workload request submission and indexes it as in
// flight (completion and rejection look requests up by ID).
func (c *CircuitMetrics) noteSubmit(rm *RequestMetrics) {
	c.Submitted++
	if c.records {
		c.Requests = append(c.Requests, rm)
	}
	c.reqByID[rm.ID] = rm
	if rm.Pairs > 0 {
		c.PendingFinite++
	}
}

// noteDelivery records one head-end delivery; with record set, the pair
// fidelity and declared Bell state ride along.
func (c *CircuitMetrics) noteDelivery(at sim.Time, record bool, f float64, state quantum.BellIndex) {
	c.Delivered++
	c.DeliveryAgg.Add(at.Seconds())
	if record {
		if c.FidelityAgg == nil {
			c.FidelityAgg = new(stats.Agg)
		}
		c.FidelityAgg.Add(f)
	}
	if !c.records {
		return
	}
	c.DeliveryTimes = append(c.DeliveryTimes, at)
	if record {
		c.Fidelities = append(c.Fidelities, f)
		c.States = append(c.States, state)
	}
}

// noteComplete records a head-end completion of an in-flight request at
// now: its latency feeds LatencyAgg and it leaves the in-flight index, so
// a second completion, or one after a rejection, is ignored.
func (c *CircuitMetrics) noteComplete(id RequestID, now sim.Time) {
	rm := c.reqByID[id]
	if rm == nil {
		return
	}
	delete(c.reqByID, id)
	rm.Done = true
	rm.CompletedAt = now
	c.Completed++
	if rm.Pairs > 0 {
		c.PendingFinite--
	}
	c.LatencyAgg.Add(now.Sub(rm.SubmittedAt).Seconds())
}

// noteReject records a policing rejection; an in-flight request is marked
// and leaves the in-flight index.
func (c *CircuitMetrics) noteReject(id RequestID) {
	c.Rejected++
	rm := c.reqByID[id]
	if rm == nil {
		return
	}
	delete(c.reqByID, id)
	rm.Rejected = true
	if rm.Pairs > 0 {
		c.PendingFinite--
	}
}

// Lifetime is the circuit's established lifespan: EstablishedAt to
// TornDownAt, the latter defaulting to end (the run's End) for circuits
// that never departed. Zero for circuits that never established.
func (c *CircuitMetrics) Lifetime(end sim.Time) sim.Duration {
	if !c.Established {
		return 0
	}
	to := c.TornDownAt
	if to == 0 {
		to = end
	}
	return to.Sub(c.EstablishedAt)
}

// DeliveredSince counts deliveries at or after from — the steady-state
// window used by latency-versus-throughput scenarios. Exactness matches
// DeliveredBetween.
func (c *CircuitMetrics) DeliveredSince(from sim.Time) int {
	return c.DeliveredBetween(from, math.MaxInt64)
}

// DeliveredBetween counts deliveries in the window [from, to]. Exact in
// MetricsFull, which counts the delivery records. MetricsStreaming asks
// DeliveryAgg: exact when the window covers every delivery (the usual
// [Start, End] query) or the series is within stats.ExactThreshold, and
// histogram-approximated for narrower windows otherwise.
func (c *CircuitMetrics) DeliveredBetween(from, to sim.Time) int {
	if to < from || c.Delivered == 0 {
		return 0
	}
	if c.records {
		n := 0
		for _, t := range c.DeliveryTimes {
			if t >= from && t <= to {
				n++
			}
		}
		return n
	}
	n := c.DeliveryAgg.CountAtOrAbove(from.Seconds())
	if to.Seconds() >= c.DeliveryAgg.Max {
		return int(n)
	}
	return int(n - c.DeliveryAgg.CountAtOrAbove(math.Nextafter(to.Seconds(), math.Inf(1))))
}

// EER is the measured entanglement end-to-end rate: deliveries in the
// window [from, to] per second. Deliveries outside the window — possible
// past to when an early-stop run overshoots its horizon — are excluded.
func (c *CircuitMetrics) EER(from, to sim.Time) float64 {
	w := to.Sub(from).Seconds()
	if w <= 0 {
		return 0
	}
	return float64(c.DeliveredBetween(from, to)) / w
}

// Latencies returns the completion latencies (seconds) of finished requests
// submitted at or after from, in submission order. MetricsFull only: in
// MetricsStreaming the per-request records do not exist and the result is
// nil — query LatencyAgg (or Metrics.LatencySummary) instead.
func (c *CircuitMetrics) Latencies(from sim.Time) []float64 {
	var out []float64
	for _, r := range c.Requests {
		if r.Done && r.SubmittedAt >= from {
			out = append(out, r.CompletedAt.Sub(r.SubmittedAt).Seconds())
		}
	}
	return out
}

// MeanFidelity averages the recorded per-delivery fidelities (0 when the
// scenario did not record them), exactly: FidelityAgg keeps an exact sum.
func (c *CircuitMetrics) MeanFidelity() float64 {
	if c.FidelityAgg == nil {
		return 0
	}
	return c.FidelityAgg.Mean()
}

// AllComplete reports whether every submitted finite request finished. In
// MetricsStreaming, where per-request records are gone, it reports that
// no finite request is pending and none was rejected — identical unless a
// rejected open-ended request is in play (a rejected finite request makes
// both modes report false forever).
func (c *CircuitMetrics) AllComplete() bool {
	if !c.Established {
		return false
	}
	if !c.records {
		return c.PendingFinite == 0 && c.Rejected == 0
	}
	for _, r := range c.Requests {
		if r.Pairs > 0 && !r.Done {
			return false
		}
	}
	return true
}

// Metrics is a scenario run's unified result: per-circuit delivery,
// latency, fidelity and policing counters plus network-wide totals.
type Metrics struct {
	Name string
	// Mode records whether the run kept the per-event records alongside
	// the aggregates (MetricsFull) or the aggregates alone
	// (MetricsStreaming); the record-only queries branch on it.
	Mode MetricsMode `json:",omitempty"`
	// Start is the virtual time traffic opened (after circuit
	// installation); End is where the run stopped. The measurement window
	// for rate helpers is [Start, End].
	Start sim.Time
	End   sim.Time
	// Err is set on replicas that failed to run.
	Err string

	Circuits []*CircuitMetrics
	byID     map[CircuitID]*CircuitMetrics

	// Admission outcomes across circuit arrivals: Admitted counts circuits
	// that established, RejectedAtAdmission those the admission control
	// refused (allocation below their MinEER demand). Circuits that failed
	// for other reasons (no feasible plan) count toward neither.
	Admitted            int
	RejectedAtAdmission int

	Nodes             int
	Links             int
	ClassicalMessages uint64
	// NodeStats holds every node's data-plane counters (swaps, discards,
	// expiries) keyed by node ID.
	NodeStats map[string]NodeStats
}

// Circuit returns a circuit's metrics, or nil for unknown IDs.
func (m *Metrics) Circuit(id CircuitID) *CircuitMetrics { return m.byID[id] }

// TotalDelivered sums deliveries over all circuits.
func (m *Metrics) TotalDelivered() int {
	n := 0
	for _, c := range m.Circuits {
		n += c.Delivered
	}
	return n
}

// AggregateEER is the network-wide delivered pair rate over the run window.
func (m *Metrics) AggregateEER() float64 {
	w := m.End.Sub(m.Start).Seconds()
	if w <= 0 {
		return 0
	}
	return float64(m.TotalDelivered()) / w
}

// TimeWeightedEER is the delivered pair rate per circuit-second of
// established lifetime: total deliveries divided by the summed lifetimes of
// the circuits that carried them. Under churn this weighs each circuit by
// how long it actually held its links, where AggregateEER (which divides by
// the whole run window) under-reports scenarios whose circuits live
// briefly. With every circuit alive for the full window the two agree up to
// the number of circuits.
func (m *Metrics) TimeWeightedEER() float64 {
	var life float64
	for _, c := range m.Circuits {
		life += c.Lifetime(m.End).Seconds()
	}
	if life <= 0 {
		return 0
	}
	return float64(m.TotalDelivered()) / life
}

// LatencySummary merges every circuit's LatencyAgg (completion
// latencies, seconds) into one mergeable summary, in circuit declaration
// order. Mean and count are exact; percentiles are exact until the series
// outgrows stats.ExactThreshold.
func (m *Metrics) LatencySummary() *stats.Agg {
	agg := new(stats.Agg)
	for _, c := range m.Circuits {
		agg.Merge(c.LatencyAgg)
	}
	return agg
}

// FidelitySummary merges every circuit's FidelityAgg into one mergeable
// summary, in circuit declaration order; empty when no circuit set
// RecordFidelity.
func (m *Metrics) FidelitySummary() *stats.Agg {
	agg := new(stats.Agg)
	for _, c := range m.Circuits {
		agg.Merge(c.FidelityAgg)
	}
	return agg
}

// waitSatisfied reports whether every listed circuit has no finite request
// still pending — the scenario's early-stop condition. A scheduled (churn)
// circuit is unsatisfied until its arrival resolves; a departed circuit is
// always satisfied (its unfinished requests died with it).
func (m *Metrics) waitSatisfied(ids []CircuitID) bool {
	for _, id := range ids {
		c := m.byID[id]
		if c == nil {
			continue
		}
		if c.PendingArrival {
			return false
		}
		if c.TornDownAt == 0 && c.Established && c.PendingFinite > 0 {
			return false
		}
	}
	return true
}
