package core

import (
	"fmt"
	"testing"

	"qnp/internal/asmcheck"
	"qnp/internal/device"
	"qnp/internal/hardware"
	"qnp/internal/linklayer"
	"qnp/internal/netsim"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

// chain is a hand-wired linear network (what the signalling protocol will
// automate): N nodes, one circuit head→tail, identical links.
type chain struct {
	sim    *sim.Simulation
	net    *netsim.Network
	nodes  []*Node
	ids    []netsim.NodeID
	fabric *linklayer.Fabric
}

type chainConfig struct {
	n         int
	linkF     float64
	cutoff    sim.Duration
	maxEER    float64
	maxLPR    float64
	params    hardware.Params
	qubits    int
	seed      int64
	perfectRO bool
}

// testEstimateFor exposes the current estimate (head-end).
func (n *Node) testEstimateFor(id CircuitID) (float64, int, bool) {
	cs, ok := n.circuits[id]
	if !ok || cs.role != RoleHead {
		return 0, 0, false
	}
	samples := cs.tests.count[0] + cs.tests.count[1] + cs.tests.count[2]
	if samples == 0 {
		return 0, 0, false
	}
	return n.testFidelityEstimate(cs), samples, true
}

func defaultChainConfig(n int) chainConfig {
	return chainConfig{
		n:      n,
		linkF:  0.95,
		cutoff: 2 * sim.Second,
		maxLPR: 200,
		params: hardware.Simulation(),
		qubits: 2,
		seed:   1,
	}
}

func buildChain(t *testing.T, cfg chainConfig) *chain {
	t.Helper()
	s := sim.New(cfg.seed)
	nw := netsim.New(s)
	fabric := linklayer.NewFabric()
	params := cfg.params
	if cfg.perfectRO {
		params.Gates.Readout = quantum.PerfectReadout
	}
	link := hardware.LabLink()

	c := &chain{sim: s, net: nw, fabric: fabric}
	devs := make([]*device.Device, cfg.n)
	for i := 0; i < cfg.n; i++ {
		id := netsim.NodeID(fmt.Sprintf("n%d", i))
		c.ids = append(c.ids, id)
		nw.AddNode(id)
		devs[i] = device.New(s, string(id), params)
	}
	for i := 0; i+1 < cfg.n; i++ {
		a, b := string(c.ids[i]), string(c.ids[i+1])
		name := linklayer.LinkName(a, b)
		devs[i].AddCommQubits(name, cfg.qubits)
		devs[i+1].AddCommQubits(name, cfg.qubits)
		nw.Connect(c.ids[i], c.ids[i+1], link.PropagationDelay())
		fabric.Add(linklayer.NewEngine(s, name, link, devs[i], devs[i+1]))
	}
	for i := 0; i < cfg.n; i++ {
		c.nodes = append(c.nodes, NewNode(s, nw, devs[i], fabric))
	}
	// Install the circuit "vc" along the whole chain.
	for i := 0; i < cfg.n; i++ {
		e := RoutingEntry{
			Circuit: "vc",
			HeadEnd: c.ids[0],
			TailEnd: c.ids[cfg.n-1],
			MaxEER:  cfg.maxEER,
			Cutoff:  cfg.cutoff,
		}
		if i > 0 {
			e.Upstream = c.ids[i-1]
			e.UpLabel = "vc"
			e.UpMinFidelity = cfg.linkF
			e.UpMaxLPR = cfg.maxLPR
		}
		if i < cfg.n-1 {
			e.Downstream = c.ids[i+1]
			e.DownLabel = "vc"
			e.DownMinFidelity = cfg.linkF
			e.DownMaxLPR = cfg.maxLPR
		}
		c.nodes[i].InstallCircuit(e)
	}
	return c
}

func (c *chain) head() *Node { return c.nodes[0] }
func (c *chain) tail() *Node { return c.nodes[len(c.nodes)-1] }

// delivery snapshots a Delivered plus physics read at delivery time (the
// collector frees the qubit immediately — a real application consumes pairs,
// which is what keeps end-node memory flowing).
type delivery struct {
	Delivered
	fidelity  float64
	trueIdx   quantum.BellIndex
	spansEnds bool
}

// collector gathers deliveries at one end and consumes the qubits.
type collector struct {
	node      *Node
	headID    string
	tailID    string
	pairs     []delivery
	early     []Delivered
	expired   []linklayer.Correlator
	completed []RequestID
	rejected  []string
	// keepEarly leaves early-delivered qubits to the test (owner semantics).
	earlyHeld map[linklayer.Correlator]*device.Pair
}

func newCollector(c *chain, n *Node) *collector {
	col := &collector{
		node:      n,
		headID:    string(c.ids[0]),
		tailID:    string(c.ids[len(c.ids)-1]),
		earlyHeld: make(map[linklayer.Correlator]*device.Pair),
	}
	n.SetHandlers("vc", Handlers{
		OnPair: func(d Delivered) {
			rec := delivery{Delivered: d}
			if d.Pair != nil {
				rec.fidelity = d.Pair.FidelityWith(d.At, d.State)
				rec.trueIdx = d.Pair.TrueIdx()
				rec.spansEnds = d.Pair.LocalSide(string(n.ID())) >= 0
				// Consume: free this end's half.
				if s := d.Pair.LocalSide(string(n.ID())); s >= 0 {
					if q := d.Pair.Half(s); q != nil {
						n.dev.Free(q)
					}
				}
				delete(col.earlyHeld, d.LocalCorr)
			}
			col.pairs = append(col.pairs, rec)
		},
		OnEarlyPair: func(d Delivered) {
			col.early = append(col.early, d)
			col.earlyHeld[d.LocalCorr] = d.Pair
		},
		OnExpire: func(_ RequestID, corr linklayer.Correlator) {
			col.expired = append(col.expired, corr)
			if p, ok := col.earlyHeld[corr]; ok {
				delete(col.earlyHeld, corr)
				if s := p.LocalSide(string(n.ID())); s >= 0 {
					if q := p.Half(s); q != nil {
						n.dev.Free(q)
					}
				}
			}
		},
		OnComplete: func(id RequestID) { col.completed = append(col.completed, id) },
		OnReject:   func(_ Request, r string) { col.rejected = append(col.rejected, r) },
	})
	return col
}

func TestTwoNodeKeepRequest(t *testing.T) {
	c := buildChain(t, defaultChainConfig(2))
	hc := newCollector(c, c.head())
	tc := newCollector(c, c.tail())

	if err := c.head().Submit(Request{ID: "r1", Circuit: "vc", Type: Keep, NumPairs: 3}); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(5 * sim.Second)

	if len(hc.pairs) != 3 || len(tc.pairs) != 3 {
		t.Fatalf("deliveries head=%d tail=%d, want 3/3", len(hc.pairs), len(tc.pairs))
	}
	if len(hc.completed) != 1 || hc.completed[0] != "r1" {
		t.Fatalf("completion = %v", hc.completed)
	}
	for i := range hc.pairs {
		h, tl := hc.pairs[i], tc.pairs[i]
		if h.Corr != tl.Corr {
			t.Error("pair identifiers differ between ends")
		}
		if h.State != tl.State {
			t.Error("declared states differ between ends")
		}
		if h.Pair == nil || tl.Pair == nil {
			t.Fatal("KEEP delivery without pair")
		}
		// Protocol-declared state matches physical ground truth (perfect
		// tracking on a single link: no swaps, no readout involved).
		if h.State != h.trueIdx {
			t.Errorf("declared %v != true %v", h.State, h.trueIdx)
		}
		if h.fidelity < 0.9 {
			t.Errorf("delivered fidelity %v", h.fidelity)
		}
	}
}

func TestThreeNodeSwapDelivery(t *testing.T) {
	cfg := defaultChainConfig(3)
	cfg.perfectRO = true // so announced swap outcomes are always truthful
	c := buildChain(t, cfg)
	hc := newCollector(c, c.head())
	tc := newCollector(c, c.tail())

	if err := c.head().Submit(Request{ID: "r1", Circuit: "vc", Type: Keep, NumPairs: 5}); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(20 * sim.Second)

	if len(hc.pairs) != 5 || len(tc.pairs) != 5 {
		t.Fatalf("deliveries head=%d tail=%d, want 5/5", len(hc.pairs), len(tc.pairs))
	}
	mid := c.nodes[1]
	if mid.Stats().Swaps < 5 {
		t.Errorf("middle node swaps = %d, want ≥5", mid.Stats().Swaps)
	}
	for i := range hc.pairs {
		h := hc.pairs[i]
		// With perfect readout the lazy tracking must agree exactly with
		// the physical Bell index of the merged pair.
		if h.State != h.trueIdx {
			t.Errorf("pair %d: declared %v != physical %v", i, h.State, h.trueIdx)
		}
		// The delivered pair is attached at this end-node.
		if !h.spansEnds {
			t.Error("delivered pair not attached at the end-node")
		}
		if h.fidelity < 0.85 {
			t.Errorf("end-to-end fidelity %v", h.fidelity)
		}
	}
	// Head and tail report the same set of canonical pair identifiers.
	hSet := map[linklayer.Correlator]bool{}
	for _, d := range hc.pairs {
		hSet[d.Corr] = true
	}
	for _, d := range tc.pairs {
		if !hSet[d.Corr] {
			t.Errorf("tail delivered chain %v unknown to head", d.Corr)
		}
	}
}

func TestFourNodeChain(t *testing.T) {
	cfg := defaultChainConfig(4)
	cfg.perfectRO = true
	c := buildChain(t, cfg)
	hc := newCollector(c, c.head())
	tc := newCollector(c, c.tail())
	if err := c.head().Submit(Request{ID: "r1", Circuit: "vc", Type: Keep, NumPairs: 4}); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(30 * sim.Second)
	if len(hc.pairs) != 4 || len(tc.pairs) != 4 {
		t.Fatalf("deliveries head=%d tail=%d, want 4/4", len(hc.pairs), len(tc.pairs))
	}
	for _, d := range hc.pairs {
		if d.State != d.trueIdx {
			t.Errorf("tracking wrong through two swaps: %v vs %v", d.State, d.trueIdx)
		}
	}
}

func TestMeasureRequestCorrelations(t *testing.T) {
	cfg := defaultChainConfig(3)
	cfg.perfectRO = true
	c := buildChain(t, cfg)
	hc := newCollector(c, c.head())
	tc := newCollector(c, c.tail())
	if err := c.head().Submit(Request{
		ID: "r1", Circuit: "vc", Type: Measure, MeasureBasis: quantum.ZBasis, NumPairs: 20,
	}); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(60 * sim.Second)
	if len(hc.pairs) != 20 || len(tc.pairs) != 20 {
		t.Fatalf("measure deliveries %d/%d, want 20/20", len(hc.pairs), len(tc.pairs))
	}
	agree := 0
	for i := range hc.pairs {
		h, tl := hc.pairs[i], tc.pairs[i]
		if h.Pair != nil {
			t.Fatal("MEASURE delivery carried a qubit")
		}
		// Z-correlation depends on the declared state: Φ states correlate,
		// Ψ states anticorrelate.
		wantEqual := h.State.XBit() == 0
		if (h.Bit == tl.Bit) == wantEqual {
			agree++
		}
	}
	if agree < 17 {
		t.Errorf("correct Z correlations %d/20", agree)
	}
	// Memory released: MEASURE qubits never sit in memory at the ends.
	if c.head().dev.FreeCommCount(linklayer.LinkName("n0", "n1")) != 2 {
		t.Error("head qubits not all free after MEASURE request")
	}
}

func TestEarlyDelivery(t *testing.T) {
	c := buildChain(t, defaultChainConfig(2))
	hc := newCollector(c, c.head())
	tc := newCollector(c, c.tail())
	_ = tc // the tail consumes its halves; only the head's view is asserted
	if err := c.head().Submit(Request{ID: "r1", Circuit: "vc", Type: Early, NumPairs: 3}); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(5 * sim.Second)
	if len(hc.early) != 3 {
		t.Fatalf("early deliveries = %d", len(hc.early))
	}
	if len(hc.pairs) != 3 {
		t.Fatalf("tracking confirmations = %d", len(hc.pairs))
	}
	// Early hand-off precedes confirmation for each pair (same local corr).
	for i := range hc.early {
		if hc.early[i].LocalCorr != hc.pairs[i].LocalCorr {
			t.Error("early/confirm correlators out of order")
		}
	}
	// EARLY with FinalState is rejected.
	phi := quantum.PhiPlus
	if err := c.head().Submit(Request{ID: "r2", Circuit: "vc", Type: Early, NumPairs: 1, FinalState: &phi}); err == nil {
		t.Error("EARLY+FinalState accepted")
	}
}

func TestFinalStateCorrection(t *testing.T) {
	cfg := defaultChainConfig(3)
	cfg.perfectRO = true
	c := buildChain(t, cfg)
	hc := newCollector(c, c.head())
	tc := newCollector(c, c.tail())
	phi := quantum.PhiPlus
	if err := c.head().Submit(Request{ID: "r1", Circuit: "vc", Type: Keep, NumPairs: 5, FinalState: &phi}); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(20 * sim.Second)
	if len(hc.pairs) != 5 {
		t.Fatalf("deliveries = %d", len(hc.pairs))
	}
	for _, d := range hc.pairs {
		if d.State != quantum.PhiPlus {
			t.Errorf("delivered state %v, want Φ+", d.State)
		}
		if d.trueIdx != quantum.PhiPlus {
			t.Errorf("physical state %v after correction", d.trueIdx)
		}
		if d.fidelity < 0.85 {
			t.Errorf("corrected fidelity %v", d.fidelity)
		}
	}
	for _, d := range tc.pairs {
		if d.State != quantum.PhiPlus {
			t.Errorf("tail reported %v, want Φ+", d.State)
		}
	}
}

func TestPolicingRejects(t *testing.T) {
	cfg := defaultChainConfig(2)
	cfg.maxEER = 5 // pairs/s
	c := buildChain(t, cfg)
	hc := newCollector(c, c.head())
	// 100 pairs in 1 s needs EER 100 > 5: police.
	if err := c.head().Submit(Request{ID: "r1", Circuit: "vc", Type: Keep, NumPairs: 100, Deadline: sim.Second}); err != nil {
		t.Fatal(err)
	}
	if len(hc.rejected) != 1 {
		t.Fatalf("rejections = %v", hc.rejected)
	}
}

func TestShapingDelaysRequests(t *testing.T) {
	cfg := defaultChainConfig(2)
	cfg.maxEER = 40
	c := buildChain(t, cfg)
	hc := newCollector(c, c.head())
	// First request claims the full EER (rate-based).
	if err := c.head().Submit(Request{ID: "r1", Circuit: "vc", Type: Measure, NumPairs: 5, Rate: 40}); err != nil {
		t.Fatal(err)
	}
	// Second request must be shaped (no deadline → wait).
	if err := c.head().Submit(Request{ID: "r2", Circuit: "vc", Type: Keep, NumPairs: 2, Window: 10 * sim.Second}); err != nil {
		t.Fatal(err)
	}
	if len(hc.rejected) != 0 {
		t.Fatalf("unexpected rejections: %v", hc.rejected)
	}
	c.sim.RunFor(10 * sim.Second)
	// Both eventually complete, r1 first.
	if len(hc.completed) != 2 || hc.completed[0] != "r1" || hc.completed[1] != "r2" {
		t.Fatalf("completions = %v", hc.completed)
	}
}

func TestAggregationTwoRequests(t *testing.T) {
	c := buildChain(t, defaultChainConfig(2))
	hc := newCollector(c, c.head())
	tc := newCollector(c, c.tail())
	if err := c.head().Submit(Request{ID: "a", Circuit: "vc", Type: Keep, NumPairs: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.head().Submit(Request{ID: "b", Circuit: "vc", Type: Keep, NumPairs: 2}); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(10 * sim.Second)
	if len(hc.completed) != 2 {
		t.Fatalf("completions = %v", hc.completed)
	}
	count := map[RequestID]int{}
	for _, d := range hc.pairs {
		count[d.Request]++
	}
	if count["a"] != 2 || count["b"] != 2 {
		t.Errorf("per-request deliveries = %v", count)
	}
	// Tail agrees on every assignment (no mismatches on an uncontended run).
	for i := range hc.pairs {
		if hc.pairs[i].Request != tc.pairs[i].Request {
			t.Error("request assignment differs between ends")
		}
	}
}

func TestDuplicateRequestIDRejected(t *testing.T) {
	c := buildChain(t, defaultChainConfig(2))
	if err := c.head().Submit(Request{ID: "a", Circuit: "vc", Type: Keep, NumPairs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.head().Submit(Request{ID: "a", Circuit: "vc", Type: Keep, NumPairs: 1}); err == nil {
		t.Error("duplicate request ID accepted")
	}
	if err := c.head().Submit(Request{ID: "x", Circuit: "nope", Type: Keep, NumPairs: 1}); err == nil {
		t.Error("unknown circuit accepted")
	}
	if err := c.tail().Submit(Request{ID: "y", Circuit: "vc", Type: Keep, NumPairs: 1}); err == nil {
		t.Error("Submit at tail accepted")
	}
	if err := c.head().Submit(Request{ID: "n", Circuit: "vc", Type: Keep, NumPairs: -1}); err == nil {
		t.Error("negative pair count accepted")
	}
	if c.head().circuits["vc"].dmx.get("n") != nil {
		t.Error("a rejected negative-count request is tracked")
	}
}

func TestCancelRateBasedRequest(t *testing.T) {
	c := buildChain(t, defaultChainConfig(2))
	hc := newCollector(c, c.head())
	if err := c.head().Submit(Request{ID: "r", Circuit: "vc", Type: Keep, NumPairs: 0}); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(2 * sim.Second)
	delivered := len(hc.pairs)
	if delivered == 0 {
		t.Fatal("open-ended request delivered nothing")
	}
	if err := c.head().Cancel("vc", "r"); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(2 * sim.Second)
	// A handful of in-flight chains may still resolve right at cancel time,
	// but generation must stop: allow a small drain margin.
	if grown := len(hc.pairs) - delivered; grown > 4 {
		t.Errorf("deliveries after cancel: %d", grown)
	}
	if err := c.head().Cancel("vc", "r"); err == nil {
		t.Error("double cancel accepted")
	}
}

func TestCutoffExpiresAndEndNodesRecover(t *testing.T) {
	// A 3-node chain where the downstream link is starved of memory: the
	// middle node's upstream pairs hit their cutoff, EXPIREs flow to the
	// head, and its qubits are freed for reuse.
	cfg := defaultChainConfig(3)
	cfg.cutoff = 50 * sim.Millisecond
	cfg.seed = 7
	c := buildChain(t, cfg)
	hc := newCollector(c, c.head())
	// Occupy the tail's qubits so the downstream link cannot generate:
	// allocate both qubits of the n1-n2 link at n2 out from under the QNP.
	tailDev := c.tail().dev
	tailDev.AllocComm(linklayer.LinkName("n1", "n2"))
	tailDev.AllocComm(linklayer.LinkName("n1", "n2"))

	if err := c.head().Submit(Request{ID: "r", Circuit: "vc", Type: Keep, NumPairs: 3}); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(3 * sim.Second)
	if len(hc.pairs) != 0 {
		t.Fatalf("impossible deliveries: %d", len(hc.pairs))
	}
	mid := c.nodes[1].Stats()
	if mid.Discards == 0 {
		t.Error("middle node never discarded at cutoff")
	}
	if mid.ExpiresSent == 0 {
		t.Error("no EXPIRE messages sent")
	}
	// The head keeps recycling qubits via EXPIREs: the head link must keep
	// generating far beyond its 2-qubit memory (≈1 round per cutoff window
	// per slot over 3 s).
	gen := c.fabric.Between("n0", "n1").Stats().PairsDelivered
	if gen < 10 {
		t.Errorf("head link generated only %d pairs — memory wedged", gen)
	}
}

// TestVoidTestRoundsForgetHeadBits starves the chain of TestCutoffExpires-
// AndEndNodesRecover with every pair a test round, so each round dies by
// EXPIRE: after the head measured it (50 ms cutoff) or before the head's
// 3.7 µs readout completes (1 µs cutoff). The head's pending test bits must
// be dropped with the rounds, so at most one entry per head link qubit is
// ever pending.
func TestVoidTestRoundsForgetHeadBits(t *testing.T) {
	for _, cutoff := range []sim.Duration{50 * sim.Millisecond, sim.Microsecond} {
		cfg := defaultChainConfig(3)
		cfg.cutoff = cutoff
		cfg.seed = 7
		c := buildChain(t, cfg)
		newCollector(c, c.head())
		tailDev := c.tail().dev
		tailDev.AllocComm(linklayer.LinkName("n1", "n2"))
		tailDev.AllocComm(linklayer.LinkName("n1", "n2"))
		if err := c.head().Submit(Request{ID: "r", Circuit: "vc", Type: Keep, NumPairs: 3, TestEvery: 1}); err != nil {
			t.Fatal(err)
		}
		c.sim.RunFor(30 * sim.Second)
		if st := c.nodes[1].Stats(); st.ExpiresSent == 0 {
			t.Fatalf("cutoff %v: no test round expired", cutoff)
		}
		if got := len(c.head().circuits["vc"].tests.headBits); got > cfg.qubits {
			t.Errorf("cutoff %v: %d head test bits pending after 30 s, want ≤ %d (one per head link qubit)", cutoff, got, cfg.qubits)
		}
	}
}

// TestSoftStateSweep runs Keep and Measure requests with test rounds over a
// 4-node chain with a short cutoff, so swap records, expiries and parked
// TRACKs pile up, some of them on chains that never resolve. Once the
// requests are done and the circuit has idled three TTLs, the GC sweep must
// have emptied every side's maps on every node.
func TestSoftStateSweep(t *testing.T) {
	cfg := defaultChainConfig(4)
	cfg.cutoff = 20 * sim.Millisecond
	cfg.qubits = 4
	c := buildChain(t, cfg)
	hc := newCollector(c, c.head())
	newCollector(c, c.tail())
	for _, req := range []Request{
		{ID: "k", Circuit: "vc", Type: Keep, NumPairs: 20, TestEvery: 3},
		{ID: "m", Circuit: "vc", Type: Measure, NumPairs: 20, TestEvery: 2},
	} {
		if err := c.head().Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	sideMaps := func() (fates, parked int) {
		for _, n := range c.nodes {
			for _, l := range n.circuits["vc"].links {
				fates += len(l.fates)
				parked += len(l.parked)
			}
		}
		return fates, parked
	}
	for len(hc.completed) < 2 {
		if c.sim.Now() > sim.Time(120*sim.Second) {
			t.Fatalf("requests completed: %v", hc.completed)
		}
		c.sim.RunFor(10 * sim.Millisecond)
	}
	if st := c.nodes[1].Stats(); st.Discards == 0 {
		t.Fatal("no pair reached its cutoff")
	}
	if fates, parked := sideMaps(); fates+parked == 0 {
		t.Fatal("no soft state left when the requests completed")
	}
	c.sim.RunFor(3 * c.head().gcTTL(c.head().circuits["vc"]))
	if fates, parked := sideMaps(); fates+parked != 0 {
		t.Errorf("after 3 TTLs idle: %d fates and %d parked TRACKs left", fates, parked)
	}
}

func TestFidelityTestRounds(t *testing.T) {
	cfg := defaultChainConfig(3)
	cfg.perfectRO = true
	c := buildChain(t, cfg)
	hc := newCollector(c, c.head())
	tc := newCollector(c, c.tail())
	_ = tc // tail consumption only
	if err := c.head().Submit(Request{ID: "r", Circuit: "vc", Type: Keep, NumPairs: 10, TestEvery: 2}); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(60 * sim.Second)
	if len(hc.pairs) != 10 {
		t.Fatalf("real deliveries = %d, want 10 (tests must not count)", len(hc.pairs))
	}
	est, samples, ok := c.head().testEstimateFor("vc")
	if !ok || samples == 0 {
		t.Fatal("no test estimate accumulated")
	}
	// The true fidelity of delivered pairs is ≈0.87–0.95 here; with few
	// samples the estimate is coarse but must be physically sensible.
	if est < 0.6 || est > 1.01 {
		t.Errorf("test-round fidelity estimate %v with %d samples", est, samples)
	}
}

func TestStatsAndAccessors(t *testing.T) {
	c := buildChain(t, defaultChainConfig(3))
	if _, ok := c.head().Circuit("vc"); !ok {
		t.Error("Circuit lookup failed")
	}
	if _, ok := c.head().Circuit("nope"); ok {
		t.Error("bogus circuit found")
	}
	if c.head().ID() != "n0" {
		t.Error("ID wrong")
	}
	if Keep.String() != "KEEP" || Early.String() != "EARLY" || Measure.String() != "MEASURE" {
		t.Error("RequestType strings wrong")
	}
	if RoleHead.String() != "head" || RoleTail.String() != "tail" || RoleIntermediate.String() != "intermediate" {
		t.Error("Role strings wrong")
	}
}

func TestMinEER(t *testing.T) {
	if got := (Request{Type: Keep, NumPairs: 10, Window: 2 * sim.Second}).MinEER(); got != 5 {
		t.Errorf("create-and-keep MinEER = %v", got)
	}
	if got := (Request{Type: Measure, Rate: 7}).MinEER(); got != 7 {
		t.Errorf("rate MinEER = %v", got)
	}
	if got := (Request{Type: Measure, NumPairs: 10, Deadline: 5 * sim.Second}).MinEER(); got != 2 {
		t.Errorf("deadline MinEER = %v", got)
	}
	if got := (Request{Type: Measure, NumPairs: 10}).MinEER(); got != 0 {
		t.Errorf("no-deadline MinEER = %v", got)
	}
}

// TestNoFusedMultiplyAdd keeps the package's arm64 assembly free of fused
// multiply-adds (see asmcheck).
func TestNoFusedMultiplyAdd(t *testing.T) { asmcheck.NoFusedMultiplyAdd(t) }
