package core

import (
	"fmt"

	"qnp/internal/device"
	"qnp/internal/linklayer"
	"qnp/internal/quantum"
)

// Submit polices, shapes and (when admissible) activates a request at the
// head-end node (§4.1 "Policing and shaping"). Rejected requests trigger
// OnReject; shaped requests queue until capacity frees.
func (n *Node) Submit(req Request) error {
	cs, ok := n.circuits[req.Circuit]
	if !ok {
		return fmt.Errorf("core %s: no circuit %q", n.id, req.Circuit)
	}
	if cs.role != RoleHead {
		return fmt.Errorf("core %s: Submit on %s node; requests start at the head-end", n.id, cs.role)
	}
	if cs.dmx.get(req.ID) != nil {
		return fmt.Errorf("core %s: duplicate request ID %q", n.id, req.ID)
	}
	if req.Type == Early && req.FinalState != nil {
		return fmt.Errorf("core %s: final-state correction unavailable for EARLY requests", n.id)
	}
	if req.NumPairs < 0 {
		return fmt.Errorf("core %s: request %q asks for %d pairs (0 is open-ended)", n.id, req.ID, req.NumPairs)
	}
	minEER := req.MinEER()
	if cs.entry.MaxEER > 0 && minEER > cs.entry.MaxEER {
		n.reject(cs, req, "police: request rate exceeds circuit EER")
		return nil
	}
	if cs.entry.MaxEER > 0 && n.activeEER(cs)+minEER > cs.entry.MaxEER {
		// Shape: the request can be satisfied later — unless its deadline
		// makes that impossible, in which case police it away now.
		if req.Deadline > 0 && !n.deadlineFeasible(cs, req) {
			n.reject(cs, req, "police: deadline infeasible under current load")
			return nil
		}
		cs.queued = append(cs.queued, &reqState{req: req, submittedAt: n.sim.Now()})
		return nil
	}
	n.activate(cs, &reqState{req: req, submittedAt: n.sim.Now()})
	return nil
}

// Cancel completes an open-ended (rate-based) request from the application
// side.
func (n *Node) Cancel(circuitID CircuitID, id RequestID) error {
	cs, ok := n.circuits[circuitID]
	if !ok || cs.role != RoleHead {
		return fmt.Errorf("core %s: Cancel needs the head-end of an installed circuit", n.id)
	}
	rs := cs.dmx.get(id)
	if rs == nil || !rs.active {
		return fmt.Errorf("core %s: no active request %q", n.id, id)
	}
	n.finishRequest(cs, rs)
	return nil
}

func (n *Node) reject(cs *circuit, req Request, reason string) {
	if cs.handlers.OnReject != nil {
		cs.handlers.OnReject(req, reason)
	}
}

// activeEER sums the minimum EERs of active requests.
func (n *Node) activeEER(cs *circuit) float64 {
	var sum float64
	for _, rs := range cs.dmx.requests() {
		if rs.active {
			sum += rs.req.MinEER()
		}
	}
	return sum
}

// deadlineFeasible estimates whether a shaped request could still meet its
// deadline: all queued and active work ahead of it, served at the circuit's
// EER, plus its own pairs.
func (n *Node) deadlineFeasible(cs *circuit, req Request) bool {
	if cs.entry.MaxEER <= 0 {
		return true
	}
	pairsAhead := 0
	for _, rs := range cs.dmx.requests() {
		if rs.active && rs.req.NumPairs > 0 {
			pairsAhead += rs.req.NumPairs - rs.delivered
		}
	}
	for _, rs := range cs.queued {
		pairsAhead += rs.req.NumPairs
	}
	eta := float64(pairsAhead+req.NumPairs) / cs.entry.MaxEER
	return eta <= req.Deadline.Seconds()
}

// activate admits a request: new epoch, FORWARD downstream, link layer
// (re)configuration.
func (n *Node) activate(cs *circuit, rs *reqState) {
	cs.dmx.add(rs)
	cs.dmx.jumpToLatest()
	rate := n.requestedRate(cs)
	n.registerLinks(cs, rate)
	cs.links[down].port.Send(ForwardMsg{
		Circuit:      cs.entry.Circuit,
		Request:      rs.req.ID,
		Type:         rs.req.Type,
		MeasureBasis: rs.req.MeasureBasis,
		NumPairs:     rs.req.NumPairs,
		FinalState:   rs.req.FinalState,
		TestEvery:    rs.req.TestEvery,
		Rate:         rate,
	})
}

// requestedRate computes the FORWARD/COMPLETE rate field: maximum LPR unless
// only rate-based requests are active (§4.1 "Continuous link generation").
func (n *Node) requestedRate(cs *circuit) float64 {
	active := 0
	var sum float64
	for _, rs := range cs.dmx.requests() {
		if !rs.active {
			continue
		}
		active++
		if rs.req.Rate <= 0 {
			return maxLPRSentinel
		}
		sum += rs.req.Rate
	}
	if active == 0 {
		return 0
	}
	return sum
}

// finishRequest completes a request at the head-end: epoch change, COMPLETE
// downstream, link layer update, shaped-queue admission.
func (n *Node) finishRequest(cs *circuit, rs *reqState) {
	cs.dmx.remove(rs.req.ID)
	cs.dmx.jumpToLatest()
	rate := n.requestedRate(cs)
	if rate == 0 {
		n.deactivateLinks(cs)
	} else {
		n.registerLinks(cs, rate)
	}
	cs.links[down].port.Send(CompleteMsg{Circuit: cs.entry.Circuit, Request: rs.req.ID, Rate: rate})
	if cs.handlers.OnComplete != nil {
		cs.handlers.OnComplete(rs.req.ID)
	}
	n.admitQueued(cs)
}

// admitQueued admits shaped requests that fit the circuit's current EER
// allocation — after a completion frees capacity, or after a re-fit grows
// the allocation itself.
func (n *Node) admitQueued(cs *circuit) {
	for len(cs.queued) > 0 {
		next := cs.queued[0]
		minEER := next.req.MinEER()
		if cs.entry.MaxEER > 0 && n.activeEER(cs)+minEER > cs.entry.MaxEER {
			break
		}
		cs.queued = cs.queued[1:]
		n.activate(cs, next)
	}
}

// --- End-node LINK rule (Algorithms 1 and 4) -------------------------------

func (n *Node) endLinkRule(cs *circuit, ps pairSlot) {
	own := cs.own()
	rs := cs.dmx.next()
	if rs == nil {
		// No assignable request (drain window after completion): free the
		// qubit and settle the pair as expired, so a late TRACK from the
		// other end is answered with EXPIRE.
		n.settle(cs, own, ps.corr.Seq, fate{expired: true, at: n.sim.Now()})
		n.dev.Free(ps.qubit)
		return
	}
	it := n.newInTransit(rs, ps)
	slot := &it.slot
	cs.inTransit[slot.corr.Seq] = it

	// Head-end designates fidelity test rounds, cycling the bases. The
	// monotonic assignment counter keys the choice, so re-assigned slots
	// (after expiry or cross-check discard) are not re-designated.
	if cs.role == RoleHead && rs.req.TestEvery > 0 && rs.totalAssigned%rs.req.TestEvery == 0 {
		it.test = true
		it.testBasis = quantum.Basis(cs.tests.issued % 3)
		cs.tests.issued++
	}

	tm := TrackMsg{
		Circuit:  cs.entry.Circuit,
		Request:  rs.req.ID,
		Origin:   slot.corr,
		LinkCorr: slot.corr,
		Outcome:  slot.idx,
		FromHead: cs.role == RoleHead,
		Test:     it.test,
	}
	if it.test {
		tm.TestBasis = it.testBasis
	}
	if cs.role == RoleHead {
		tm.Epoch = cs.dmx.latest
	}
	cs.links[own].port.Send(tm)

	// Consume-early modes: measure now, or hand the qubit to the app now.
	switch {
	case it.test:
		n.measureLocal(cs, it, it.testBasis)
	case rs.req.Type == Measure:
		n.measureLocal(cs, it, rs.req.MeasureBasis)
	case rs.req.Type == Early:
		it.earlyGiven = true
		it.earlyOwned = !cs.handlers.consumes()
		if cs.handlers.OnEarlyPair != nil {
			cs.handlers.OnEarlyPair(Delivered{
				Circuit:   cs.entry.Circuit,
				Request:   rs.req.ID,
				Corr:      slot.corr, // provisional; the canonical ID follows with tracking
				LocalCorr: slot.corr,
				Pair:      slot.pair(),
				State:     slot.idx, // provisional; final state follows with tracking
				Type:      Early,
				At:        n.sim.Now(),
			})
		}
	}
}

// measureLocal performs the local half's measurement for MEASURE requests
// and test rounds; the outcome is withheld until tracking resolves.
func (n *Node) measureLocal(cs *circuit, it *inTransitEntry, basis quantum.Basis) {
	n.dev.MeasureHalf(it.slot.qubit, basis, func(bit int) {
		it.measured = true
		it.measuredBit = bit
		if it.test && cs.role == RoleHead {
			if it.dropped {
				return // the round was void before its bit came in
			}
			// Push the head's bit into the test sample (the chain may or
			// may not be confirmed yet).
			hb := cs.tests.headBits[it.slot.corr.Seq]
			hb.basis = it.testBasis
			hb.bit, hb.haveBit = bit, true
			cs.tests.headBits[it.slot.corr.Seq] = hb
			n.maybeScoreTest(cs, it.slot.corr.Seq)
			return
		}
		if it.trackArrived {
			n.deliver(cs, it)
		}
	})
}

// --- End-node TRACK rule (Algorithms 2 and 5) ------------------------------

// endTrackRule handles a TRACK for a pair without a settled fate (see
// meetTrack): one the end assigned to a request.
func (n *Node) endTrackRule(cs *circuit, m TrackMsg) {
	it, ok := cs.inTransit[m.LinkCorr.Seq]
	if !ok {
		// Stale TRACK for a pair we no longer hold (already resolved by an
		// EXPIRE): nothing to do.
		return
	}
	// Demultiplexer cross-check (§4.1 "Aggregation"): the other end's
	// assignment must match ours, else both ends discard. Chains resolving
	// for already-completed requests drain the same way.
	if it.rs.req.ID != m.Request || !it.rs.active {
		cs.trackMismatch++
		n.dropInTransit(cs, m.LinkCorr, it)
		return
	}
	delete(cs.inTransit, m.LinkCorr.Seq)
	it.trackArrived = true
	it.trackState = m.Outcome
	if m.FromHead {
		it.chainCorr = m.Origin // we are the tail; the head-side ID travels on its TRACK
	} else {
		it.chainCorr = it.slot.corr // we are the head; our own correlator is canonical
	}

	// Tail activates the epoch announced by the head on delivery.
	if cs.role == RoleTail && m.Epoch > 0 {
		cs.dmx.advance(m.Epoch)
	}

	if m.Test || it.test {
		n.resolveTestRound(cs, it, m)
		return
	}
	if it.measured || it.rs.req.Type == Measure {
		if it.measured {
			n.deliver(cs, it)
		}
		// else: measurement still on the device timeline; deliver fires
		// from its completion callback.
		return
	}
	n.deliver(cs, it)
	n.releaseInTransit(it)
}

// newInTransit takes an in-transit entry from the node's pool.
func (n *Node) newInTransit(rs *reqState, slot pairSlot) *inTransitEntry {
	it := n.freeInTransit
	if it == nil {
		it = &inTransitEntry{}
	} else {
		n.freeInTransit = it.next
	}
	it.rs, it.slot = rs, slot
	return it
}

// releaseInTransit returns an entry that has left inTransit to the pool.
// Entries that measure stay out of it: their measurement callback may still
// hold them.
func (n *Node) releaseInTransit(it *inTransitEntry) {
	if it.measures() {
		return
	}
	*it = inTransitEntry{next: n.freeInTransit}
	n.freeInTransit = it
}

// deliver finalises a confirmed pair at this end-node.
func (n *Node) deliver(cs *circuit, it *inTransitEntry) {
	rs := it.rs
	state := it.trackState
	if rs.req.FinalState != nil {
		want := *rs.req.FinalState
		if cs.role == RoleHead {
			// Pauli-correct the local half into the requested Bell state.
			if p := it.slot.pair(); p != nil && !it.measured && p.LocalSide(string(n.id)) >= 0 {
				d := state ^ want
				p.ApplyPauli(p.LocalSide(string(n.id)), d.XBit(), d.ZBit())
			}
		}
		// Both ends report the corrected state (Algorithm 5: the tail
		// trusts the head-end's correction).
		state = want
	}
	if !rs.haveFirst {
		rs.haveFirst = true
		rs.firstAt = n.sim.Now()
	}
	rs.delivered++
	d := Delivered{
		Circuit:   cs.entry.Circuit,
		Request:   rs.req.ID,
		Seq:       rs.nextSeq(),
		Corr:      it.chainCorr,
		LocalCorr: it.slot.corr,
		State:     state,
		Type:      rs.req.Type,
		At:        n.sim.Now(),
	}
	switch rs.req.Type {
	case Measure:
		d.Bit = it.measuredBit
	default:
		d.Pair = it.slot.pair()
	}
	h := cs.handlers
	if h.OnPair != nil {
		h.OnPair(d)
	}
	if h.consumes() && !it.earlyOwned {
		n.freeLocal(d.Pair)
	}
	if cs.role == RoleHead && rs.active && rs.req.NumPairs > 0 && rs.delivered >= rs.req.NumPairs {
		n.finishRequest(cs, rs)
	}
}

// dropInTransit discards a local pair after a failed cross-check or an
// EXPIRE: the assignment is returned to the demultiplexer for reuse.
func (n *Node) dropInTransit(cs *circuit, corr linklayer.Correlator, it *inTransitEntry) {
	delete(cs.inTransit, corr.Seq)
	cs.dmx.unassign(it.rs)
	if it.test {
		// A void round is never scored: forget its head bits.
		it.dropped = true
		delete(cs.tests.headBits, it.slot.corr.Seq)
	}
	h := cs.handlers
	if it.earlyGiven && h.OnExpire != nil {
		h.OnExpire(it.rs.req.ID, corr)
	}
	if it.nodeFrees() {
		n.freeLocal(it.slot.pair())
	}
	n.releaseInTransit(it)
}

// freeLocal frees this node's half of a delivered pair, if it still holds
// one.
func (n *Node) freeLocal(p *device.Pair) {
	if p == nil {
		return
	}
	if s := p.LocalSide(string(n.id)); s >= 0 {
		if q := p.Half(s); q != nil {
			n.dev.Free(q)
		}
	}
}

// --- End-node EXPIRE rule (Algorithms 3 and 6) ------------------------------

func (n *Node) endExpireRule(cs *circuit, m ExpireMsg) {
	it, ok := cs.inTransit[m.Origin.Seq]
	if !ok {
		return
	}
	n.dropInTransit(cs, m.Origin, it)
}

// --- Fidelity test rounds ----------------------------------------------------

// resolveTestRound handles a confirmed test-round chain at either end.
func (n *Node) resolveTestRound(cs *circuit, it *inTransitEntry, m TrackMsg) {
	cs.dmx.unassign(it.rs) // test rounds do not count toward the request
	if cs.role == RoleTail {
		// Measure in the head's announced basis and report back.
		report := func(bit int) {
			cs.links[up].port.Send(TestResultMsg{
				Circuit: cs.entry.Circuit,
				Origin:  m.Origin,
				Basis:   m.TestBasis,
				Bit:     bit,
				ToHead:  true,
			})
		}
		if it.measured {
			report(it.measuredBit)
			return
		}
		n.dev.MeasureHalf(it.slot.qubit, m.TestBasis, report)
		return
	}
	// Head: remember the declared state and our own measurement; the tail's
	// result arrives as a TestResultMsg keyed by our origin correlator. If
	// our measurement is still on the device timeline, its completion
	// callback (measureLocal) fills in the bit and re-scores.
	hb := cs.tests.headBits[it.slot.corr.Seq]
	hb.basis = it.testBasis
	hb.idx = m.Outcome
	hb.haveIdx = true
	if it.measured {
		hb.bit, hb.haveBit = it.measuredBit, true
	}
	cs.tests.headBits[it.slot.corr.Seq] = hb
	n.maybeScoreTest(cs, it.slot.corr.Seq)
}

// headRecordTestResult stores the tail's measurement and scores the sample
// when both bits are in.
func (n *Node) headRecordTestResult(cs *circuit, m TestResultMsg) {
	hb := cs.tests.headBits[m.Origin.Seq]
	hb.tailBit, hb.haveTailBit = m.Bit, true
	cs.tests.headBits[m.Origin.Seq] = hb
	n.maybeScoreTest(cs, m.Origin.Seq)
}

func (n *Node) maybeScoreTest(cs *circuit, seq uint64) {
	hb := cs.tests.headBits[seq]
	if !hb.haveBit || !hb.haveTailBit || !hb.haveIdx {
		return
	}
	delete(cs.tests.headBits, seq)
	s := 1.0
	if hb.bit != hb.tailBit {
		s = -1
	}
	// Adjust the outcome product into the Φ+ frame using the declared Bell
	// state's expected correlation signs.
	s = float64(s * bellSign(hb.idx, hb.basis))
	b := int(hb.basis)
	cs.tests.sum[b] += s
	cs.tests.count[b]++
	if cs.handlers.OnTestEstimate != nil {
		cs.handlers.OnTestEstimate(TestEstimate{
			Circuit:  cs.entry.Circuit,
			Samples:  cs.tests.count[0] + cs.tests.count[1] + cs.tests.count[2],
			Estimate: n.testFidelityEstimate(cs),
		})
	}
}

// bellSign is the expected sign of the basis-B correlation for Bell state
// idx: every Bell state is a ±1 eigenstate of XX, YY and ZZ.
func bellSign(idx quantum.BellIndex, basis quantum.Basis) float64 {
	// Signs (XX, YY, ZZ) per state: Φ+:(+,−,+) Ψ+:(+,+,−) Φ−:(−,+,+) Ψ−:(−,−,−).
	var xx, yy, zz float64
	switch idx {
	case quantum.PhiPlus:
		xx, yy, zz = 1, -1, 1
	case quantum.PsiPlus:
		xx, yy, zz = 1, 1, -1
	case quantum.PhiMinus:
		xx, yy, zz = -1, 1, 1
	case quantum.PsiMinus:
		xx, yy, zz = -1, -1, -1
	}
	switch basis {
	case quantum.XBasis:
		return xx
	case quantum.YBasis:
		return yy
	default:
		return zz
	}
}

// testFidelityEstimate reconstructs F from the per-basis correlator
// estimates, normalised to the Φ+ frame: F ≈ (1 + <XX> − <YY> + <ZZ>)/4
// with the sign adjustments already folded in per sample.
func (n *Node) testFidelityEstimate(cs *circuit) float64 {
	e := func(b quantum.Basis) float64 {
		i := int(b)
		if cs.tests.count[i] == 0 {
			return 1 // no samples yet: assume perfect (optimistic prior)
		}
		return cs.tests.sum[i] / float64(cs.tests.count[i])
	}
	// All three adjusted correlators should be +1 for perfect pairs.
	return (1 + e(quantum.XBasis) + e(quantum.YBasis) + e(quantum.ZBasis)) / 4
}

// NodeStats aggregates a node's QNP counters across circuits. LateDrops
// counts data-plane messages dropped because their circuit had already torn
// down (churn stragglers); EERUpdates counts allocation re-fits applied at
// the node (always zero when the network does not enforce admission).
type NodeStats struct {
	Swaps, Discards, ExpiresSent, TrackMismatches, LateDrops, EERUpdates uint64
}

// Stats returns the node's counters.
func (n *Node) Stats() NodeStats {
	var st NodeStats
	for _, cs := range n.circuits {
		st.Swaps += cs.swaps
		st.Discards += cs.discards
		st.ExpiresSent += cs.expiresSent
		st.TrackMismatches += cs.trackMismatch
	}
	st.LateDrops = n.lateDrops
	st.EERUpdates = n.eerUpdates
	return st
}
