package core

import (
	"fmt"
	"maps"

	"qnp/internal/device"
	"qnp/internal/linklayer"
	"qnp/internal/netsim"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

// Delivered is handed to the application when a pair (or a measurement
// outcome) is delivered at an end-node.
type Delivered struct {
	Circuit CircuitID
	Request RequestID
	// Seq numbers deliveries within the request at this end.
	Seq int
	// Corr is the entangled pair identifier of §3.2: the head-end-side
	// chain correlator, identical at both end-nodes (the tail learns it
	// from the head's TRACK message Origin field).
	Corr linklayer.Correlator
	// LocalCorr is this end's own link-pair correlator for the chain; EARLY
	// hand-offs and EXPIRE notices are keyed by it.
	LocalCorr linklayer.Correlator
	// Pair is the live end-to-end pair (nil for Measure deliveries).
	Pair *device.Pair
	// State is the protocol's declared Bell state for the pair.
	State quantum.BellIndex
	// Bit is the measurement outcome for Measure requests.
	Bit  int
	Type RequestType
	At   sim.Time
}

// TestEstimate reports the running fidelity estimate from test rounds.
type TestEstimate struct {
	Circuit  CircuitID
	Samples  int
	Estimate float64
}

// Handlers connect one end-node circuit to the local application. Unset
// callbacks are ignored.
//
// Ownership: a delivered pair's local qubit belongs to the application only
// when OnPair is set and AutoConsume is false; the application then frees
// it (device.Free) when done. Otherwise the node frees it right after
// OnPair returns. An EARLY hand-off follows the same rule, applied when the
// qubit is handed over: if the chain then expires, OnExpire fires, and if
// the circuit is torn down first, nothing fires; either way the node frees
// the early qubit itself unless the application owned it at the hand-off.
type Handlers struct {
	// OnPair delivers confirmed pairs (KEEP), tracking confirmations
	// (EARLY) and withheld measurement results (MEASURE).
	OnPair func(Delivered)
	// OnEarlyPair hands over the qubit as soon as it is available (EARLY
	// requests); tracking info follows via OnPair.
	OnEarlyPair func(Delivered)
	// OnExpire notifies that an early-delivered pair's chain broke.
	OnExpire func(RequestID, linklayer.Correlator)
	// OnComplete fires at the head-end when a request finishes.
	OnComplete func(RequestID)
	// OnReject fires at the head-end when policing rejects a request.
	OnReject func(Request, string)
	// OnTestEstimate reports fidelity test-round statistics (head-end).
	OnTestEstimate func(TestEstimate)
	// AutoConsume frees this end's qubit right after OnPair returns —
	// convenient for applications that only read metadata or fidelity.
	AutoConsume bool
}

// consumes reports whether the node, not the application, frees the
// circuit's delivered qubits.
func (h *Handlers) consumes() bool { return h.AutoConsume || h.OnPair == nil }

// side names one of a node's links on a circuit: up leads toward the
// head-end, down toward the tail-end. An intermediate node has both, an
// end-node only the one its role gives (own).
type side int

const (
	up side = iota
	down
)

func (s side) other() side { return 1 - s }

// toward is the side toward the head-end if head is set, else toward the
// tail-end. A message bound for the head leaves over it, and a TRACK from
// the head arrives over it.
func toward(head bool) side {
	if head {
		return up
	}
	return down
}

// pairSlot tracks one local link-pair half at a node. The qubit is the
// stable handle: remote entanglement swaps rewire qubit→pair bindings, so
// the current (possibly multi-hop) pair is always qubit.Pair().
//
// An end-node's slot lives inside its inTransitEntry. An intermediate
// node's slots come from the node's pool (newSlot) with their callbacks
// bound once, and go back (releaseSlot) where the last reference dies: in
// swapped once the swap completes, after the cutoff expiry, or in moved
// when the slot expired or its circuit tore down while a storage move was
// pending. Slots still queued at teardown are left to the collector.
type pairSlot struct {
	corr   linklayer.Correlator
	idx    quantum.BellIndex // heralded link-pair Bell state
	qubit  *device.Qubit
	cutoff sim.Event
	// moving marks a half mid-transfer to a storage qubit (near-term
	// platform); it cannot be swapped until the move completes.
	moving bool

	// The fields below belong to pooled intermediate slots.
	node *Node
	cs   *circuit
	side side
	// partner is the downstream slot of the swap this (upstream) slot is in.
	partner *pairSlot
	// dead marks a slot expired or torn down while its move was pending.
	dead     bool
	onCutoff func()
	onSwap   func(*device.Pair, quantum.BellIndex)
	onMove   func(*device.Qubit, bool)
	next     *pairSlot
}

func (s *pairSlot) pair() *device.Pair { return s.qubit.Pair() }

// fate is what became of a link-pair half at a node, kept until the pair's
// TRACK arrives to meet it (Appendix C Algorithms 7–9). It is either a swap
// record (§4.1 "Swap records": the partner pair's correlator and heralded
// state plus the two-bit swap outcome) or an expiry: an intermediate
// discarded the half at its cutoff, or an end-node had no request to assign
// it to. Fates are soft state: chains whose both ends were drained never
// send a TRACK to consume them, so a TTL sweep reclaims them (at is the
// creation time).
type fate struct {
	otherCorr linklayer.Correlator
	otherIdx  quantum.BellIndex
	outcome   quantum.BellIndex
	expired   bool
	at        sim.Time
}

// parkedTrack is a TRACK waiting at an intermediate node for its pair's
// fate.
type parkedTrack struct {
	msg TrackMsg
	at  sim.Time
}

// link is a circuit's state on one side of a node. Its maps hold only this
// link's correlators, so Correlator.Seq alone keys them: a TRACK's LinkCorr
// names the link it arrived over, and an EXPIRE or test result reaching an
// end carries that end's origin.
type link struct {
	// port sends to the neighbour over this link; resolved at install.
	port netsim.Port
	// registered records the link layer registration of this side.
	registered bool
	// q queues an intermediate node's unswapped pairs, oldest first.
	q []*pairSlot
	// fates await their pairs' TRACKs, and parked TRACKs (intermediate
	// nodes only) await their pairs' fates. Both are soft state (see
	// gcSweep).
	fates  map[uint64]fate
	parked map[uint64]parkedTrack
}

// inTransitEntry is an end-node's record of a local pair assigned to a
// request and awaiting tracking confirmation.
type inTransitEntry struct {
	rs   *reqState
	slot pairSlot
	// test marks head-chosen fidelity test rounds.
	test      bool
	testBasis quantum.Basis
	// measured holds the outcome of an already-performed measurement
	// (Measure requests and test rounds).
	measured     bool
	measuredBit  int
	trackArrived bool
	trackState   quantum.BellIndex
	earlyGiven   bool
	// earlyOwned records that the application owned its deliveries when
	// the early hand-off happened, so the half is the application's to
	// free whatever the handlers are later.
	earlyOwned bool
	// chainCorr is the canonical (head-side) chain identifier, learned from
	// the confirming TRACK.
	chainCorr linklayer.Correlator
	// dropped marks a test round discarded by EXPIRE or a failed
	// cross-check while the head's measurement may still be pending.
	dropped bool
	next    *inTransitEntry // pool link
}

// measures reports whether the entry's half is measured on arrival: Measure
// requests and head-designated test rounds. The measurement consumes the
// half, and its callback may still hold the entry.
func (it *inTransitEntry) measures() bool {
	return it.test || it.rs.req.Type == Measure
}

// nodeFrees reports whether the node, not the application, frees this
// entry's local half when the entry is discarded (failed cross-check,
// EXPIRE or teardown): a measured half is consumed by its measurement, even
// one still pending, and an early hand-off to an owning application is the
// application's.
func (it *inTransitEntry) nodeFrees() bool {
	return !it.measures() && !it.earlyOwned
}

// testStats accumulates fidelity test-round correlators at the head-end.
type testStats struct {
	// sum of ±1 outcome products per basis, sign-adjusted to the Φ+ frame.
	sum   [3]float64
	count [3]int
	// issued counts test rounds designated so far (for basis cycling).
	issued int
	// pending head measurements/tail results keyed by the Seq of the
	// origin correlator, which is on the head's own link.
	headBits map[uint64]headTestBit
}

type headTestBit struct {
	basis   quantum.Basis
	bit     int
	haveBit bool
	// tailBit arrives via TestResultMsg.
	tailBit     int
	haveTailBit bool
	idx         quantum.BellIndex
	haveIdx     bool
}

// circuit is the per-node state of one virtual circuit.
type circuit struct {
	entry RoutingEntry
	role  Role
	// handlers are the application's callbacks (end-nodes only).
	handlers Handlers

	// links holds the node's state on each side of the circuit; an
	// end-node uses only links[own()].
	links [2]link

	// End-node state (Algorithms 1–6); inTransit is keyed like the link
	// maps, by the Seq of a correlator on the end's own link.
	dmx       *demux
	inTransit map[uint64]*inTransitEntry
	queued    []*reqState // shaped (delayed) requests, head-end only
	tests     testStats

	// Stats.
	swaps, discards, expiresSent, trackMismatch uint64
}

// own is an end-node's only side: the head-end's link leads down the
// circuit, the tail-end's up.
func (cs *circuit) own() side { return toward(cs.role == RoleTail) }

// Node is one network node's QNP engine. It owns the node's circuits,
// consumes link layer deliveries, exchanges FORWARD/COMPLETE/TRACK/EXPIRE
// messages with its neighbours, and applies the Appendix C rules.
type Node struct {
	id     netsim.NodeID
	sim    *sim.Simulation
	net    *netsim.Network
	dev    *device.Device
	fabric *linklayer.Fabric

	circuits map[CircuitID]*circuit
	// torn tombstones recently uninstalled circuits (keyed by teardown
	// time): the teardown wave races in-flight data-plane messages, so a
	// TRACK or EXPIRE arriving for a tombstoned circuit is dropped as a
	// legitimate late straggler rather than treated as a signalling bug.
	// The GC sweep reclaims old tombstones.
	torn map[CircuitID]sim.Time
	// lateDrops counts messages dropped against tombstones.
	lateDrops uint64
	// eerUpdates counts allocation re-fits applied at this node — the
	// observable footprint of UpdateMsg refit traffic (a non-enforcing
	// network must keep it at zero).
	eerUpdates uint64
	// gcRunning marks the periodic soft-state sweep as started.
	gcRunning bool
	// freeSlots and freeInTransit pool intermediate pair slots and
	// end-node in-transit entries.
	freeSlots     *pairSlot
	freeInTransit *inTransitEntry
}

// NewNode creates the QNP engine for a node and hooks it into the classical
// network's message dispatch.
func NewNode(s *sim.Simulation, net *netsim.Network, dev *device.Device, fabric *linklayer.Fabric) *Node {
	n := &Node{
		id:       netsim.NodeID(dev.ID()),
		sim:      s,
		net:      net,
		dev:      dev,
		fabric:   fabric,
		circuits: make(map[CircuitID]*circuit),
		torn:     make(map[CircuitID]sim.Time),
	}
	net.Handle(n.id, n.handleMessage)
	return n
}

// ID returns the node's network ID.
func (n *Node) ID() netsim.NodeID { return n.id }

// SetHandlers installs the application callbacks of a circuit that ends at
// this node, replacing any set before. It is a no-op for a circuit not
// installed here.
func (n *Node) SetHandlers(id CircuitID, h Handlers) {
	if cs, ok := n.circuits[id]; ok && cs.role != RoleIntermediate {
		cs.handlers = h
	}
}

// InstallCircuit installs the routing-table entry for a circuit at this
// node — the signalling protocol's job (§3.3).
func (n *Node) InstallCircuit(e RoutingEntry) {
	if _, ok := n.circuits[e.Circuit]; ok {
		panic(fmt.Sprintf("core %s: circuit %q already installed", n.id, e.Circuit))
	}
	cs := &circuit{
		entry:     e,
		role:      e.Role(),
		inTransit: make(map[uint64]*inTransitEntry),
	}
	cs.tests.headBits = make(map[uint64]headTestBit)
	for s, peer := range [2]netsim.NodeID{up: e.Upstream, down: e.Downstream} {
		if peer != "" {
			cs.links[s] = link{
				port:   n.net.Port(n.id, peer),
				fates:  make(map[uint64]fate),
				parked: make(map[uint64]parkedTrack),
			}
		}
	}
	if cs.role != RoleIntermediate {
		cs.dmx = newDemux()
	}
	n.circuits[e.Circuit] = cs
	delete(n.torn, e.Circuit) // a reinstalled ID is live again
	if !n.gcRunning {
		n.gcRunning = true
		n.sim.Schedule(gcInterval, n.gcSweep)
	}
}

// Soft-state reclamation: fates and parked TRACKs describe chains whose
// resolution messages normally consume them — but a chain whose both ends
// were drained (e.g. pairs arriving after a request completed) never
// resolves. The sweep drops entries older than several cutoff intervals;
// any TRACK that would have consumed them has long since been answered or
// abandoned.
const gcInterval = 5 * sim.Second

func (n *Node) gcTTL(cs *circuit) sim.Duration {
	ttl := 10 * cs.entry.Cutoff
	if ttl < 2*gcInterval {
		ttl = 2 * gcInterval
	}
	return ttl
}

func (n *Node) gcSweep() {
	now := n.sim.Now()
	for _, cs := range n.circuits {
		cutoff := now.Add(-n.gcTTL(cs))
		for i := range cs.links {
			l := &cs.links[i]
			maps.DeleteFunc(l.fates, func(_ uint64, f fate) bool { return f.at < cutoff })
			maps.DeleteFunc(l.parked, func(_ uint64, p parkedTrack) bool { return p.at < cutoff })
		}
	}
	// Teardown tombstones outlive any in-flight message by orders of
	// magnitude before reclamation (message latencies are sub-second).
	tombCutoff := now.Add(-2 * gcInterval)
	for id, at := range n.torn {
		if at < tombCutoff {
			delete(n.torn, id)
		}
	}
	n.sim.Schedule(gcInterval, n.gcSweep)
}

// UninstallCircuit tears a circuit down at this node: link layer requests
// are deactivated, queued pairs and cutoff timers are released, and the
// routing-table entry is removed (§4.1: "If a circuit goes down due to loss
// of connectivity, the protocol aborts all requests").
func (n *Node) UninstallCircuit(id CircuitID) {
	cs, ok := n.circuits[id]
	if !ok {
		return
	}
	n.deactivateLinks(cs)
	for _, l := range cs.links {
		for _, slot := range l.q {
			n.sim.Cancel(slot.cutoff)
			n.dev.Free(slot.qubit)
			// A pending move holds the slot until it completes.
			slot.dead = slot.moving
		}
	}
	for _, it := range cs.inTransit {
		if it.nodeFrees() {
			n.freeLocal(it.slot.pair())
		}
	}
	// Measurements still on the device timeline may deliver on the removed
	// circuit: they reach no application.
	cs.handlers = Handlers{}
	delete(n.circuits, id)
	n.torn[id] = n.sim.Now()
}

// UpdateCircuitEER re-fits the circuit's end-to-end rate allocation at this
// node (§4.4: the controller recomputes allocations as circuits join and
// leave; the signalling protocol propagates the new value along the path).
// The head-end re-derives its link pacing from the new allocation and
// re-examines shaped requests, which may now fit.
func (n *Node) UpdateCircuitEER(id CircuitID, maxEER float64) {
	n.eerUpdates++
	cs, ok := n.circuits[id]
	if !ok {
		return // circuit mid-teardown: the update raced its departure
	}
	cs.entry.MaxEER = maxEER
	if cs.role != RoleHead {
		return
	}
	if rate := n.requestedRate(cs); rate != 0 && cs.links[down].registered {
		n.registerLinks(cs, rate)
	}
	n.admitQueued(cs)
}

// Circuit returns the routing entry installed for a circuit.
func (n *Node) Circuit(id CircuitID) (RoutingEntry, bool) {
	cs, ok := n.circuits[id]
	if !ok {
		return RoutingEntry{}, false
	}
	return cs.entry, true
}

// --- Message plumbing -----------------------------------------------------

func (n *Node) handleMessage(from netsim.NodeID, msg netsim.Message) {
	switch m := msg.(type) {
	case ForwardMsg:
		if cs := n.circuitFor(m.Circuit); cs != nil {
			n.onForward(cs, m)
		}
	case CompleteMsg:
		if cs := n.circuitFor(m.Circuit); cs != nil {
			n.onComplete(cs, m)
		}
	case TrackMsg:
		if cs := n.circuitFor(m.Circuit); cs != nil {
			n.meetTrack(cs, m)
		}
	case ExpireMsg:
		if cs := n.circuitFor(m.Circuit); cs != nil {
			n.onExpire(cs, m)
		}
	case TestResultMsg:
		if cs := n.circuitFor(m.Circuit); cs != nil {
			n.onTestResult(cs, m)
		}
	}
}

// circuitFor fetches the circuit a data-plane message is for. It returns
// nil (and counts the drop) for a circuit that has already torn down at
// this node — the teardown wave races in-flight messages, so stragglers are
// a legitimate outcome. A message for a circuit never installed indicates a
// signalling bug and panics.
func (n *Node) circuitFor(id CircuitID) *circuit {
	if cs, ok := n.circuits[id]; ok {
		return cs
	}
	if _, gone := n.torn[id]; gone {
		n.lateDrops++
		return nil
	}
	panic(fmt.Sprintf("core %s: message for uninstalled circuit %q", n.id, id))
}

// --- Link layer management ------------------------------------------------

// registerLinks (re-)activates the circuit's link layer requests at this
// node per the FORWARD's rate field.
func (n *Node) registerLinks(cs *circuit, rate float64) {
	e := cs.entry
	if e.Downstream != "" {
		eng := n.fabric.Between(string(n.id), string(e.Downstream))
		lpr := n.effectiveLPR(cs, rate)
		if !cs.links[down].registered {
			if err := eng.Register(string(n.id), e.DownLabel, e.DownMinFidelity, lpr, func(d linklayer.Delivery) {
				n.onLinkPair(cs, d, down)
			}); err != nil {
				panic(fmt.Sprintf("core %s: link register: %v", n.id, err))
			}
			cs.links[down].registered = true
		} else {
			eng.UpdateRate(e.DownLabel, lpr)
		}
		if cs.role == RoleHead && e.MaxEER > 0 {
			// Shaping (§4.1): under admission control the head-end caps its
			// first hop at the admitted end-to-end rate. Every end-to-end
			// pair consumes one head-link pair, so pacing here bounds the
			// circuit's measured EER by its allocation regardless of how
			// idle the rest of the plant is.
			pace := 0.0
			if rate != maxLPRSentinel {
				pace = rate
			}
			eng.SetPace(string(n.id), e.DownLabel, pace)
		}
	}
	if e.Upstream != "" && !cs.links[up].registered {
		eng := n.fabric.Between(string(n.id), string(e.Upstream))
		// The upstream neighbour owns this link's fidelity/rate settings
		// (its DownMinFidelity); we register with the same values, which
		// the routing table guarantees to match: our upstream link is the
		// neighbour's downstream link.
		if err := eng.Register(string(n.id), e.UpLabel, e.UpMinFidelity, e.UpMaxLPR, func(d linklayer.Delivery) {
			n.onLinkPair(cs, d, up)
		}); err != nil {
			panic(fmt.Sprintf("core %s: link register: %v", n.id, err))
		}
		cs.links[up].registered = true
	}
}

// effectiveLPR maps the circuit's current requested EER to the link-pair
// rate to ask of the link layer: the max LPR unless only rate-based
// requests are active, in which case the proportional fraction (§4.1
// "Continuous link generation").
func (n *Node) effectiveLPR(cs *circuit, rate float64) float64 {
	e := cs.entry
	if rate == maxLPRSentinel || e.MaxEER <= 0 {
		return e.DownMaxLPR
	}
	lpr := e.DownMaxLPR * rate / e.MaxEER
	if lpr > e.DownMaxLPR {
		lpr = e.DownMaxLPR
	}
	if lpr < 0 {
		lpr = 0
	}
	return lpr
}

// deactivateLinks pauses the circuit's generation at this node when no
// requests remain.
func (n *Node) deactivateLinks(cs *circuit) {
	e := cs.entry
	if cs.links[down].registered {
		n.fabric.Between(string(n.id), string(e.Downstream)).Deactivate(string(n.id), e.DownLabel)
		cs.links[down].registered = false
	}
	if cs.links[up].registered {
		n.fabric.Between(string(n.id), string(e.Upstream)).Deactivate(string(n.id), e.UpLabel)
		cs.links[up].registered = false
	}
}

// --- FORWARD / COMPLETE ---------------------------------------------------

func (n *Node) onForward(cs *circuit, m ForwardMsg) {
	n.registerLinks(cs, m.Rate)
	if cs.role == RoleTail {
		// Tail book-keeping: a new epoch with the request added.
		rs := &reqState{
			req: Request{
				ID:           m.Request,
				Circuit:      m.Circuit,
				Type:         m.Type,
				MeasureBasis: m.MeasureBasis,
				NumPairs:     m.NumPairs,
				FinalState:   m.FinalState,
				TestEvery:    m.TestEvery,
			},
			submittedAt: n.sim.Now(),
		}
		cs.dmx.add(rs)
		return
	}
	cs.links[down].port.Send(m)
}

func (n *Node) onComplete(cs *circuit, m CompleteMsg) {
	if cs.role == RoleTail {
		cs.dmx.remove(m.Request)
		if m.Rate == 0 {
			n.deactivateLinks(cs)
		}
		return
	}
	if m.Rate == 0 {
		n.deactivateLinks(cs)
	} else {
		n.registerLinks(cs, m.Rate)
	}
	cs.links[down].port.Send(m)
}

// --- LINK rules -----------------------------------------------------------

// onLinkPair dispatches a link layer delivery on side s to the role-specific
// rule.
func (n *Node) onLinkPair(cs *circuit, d linklayer.Delivery, s side) {
	q := d.Pair.Half(d.Pair.LocalSide(string(n.id)))
	if cs.role == RoleIntermediate {
		slot := n.newSlot(cs, s)
		slot.corr, slot.idx, slot.qubit = d.Corr, d.Idx, q
		n.intermediateLinkRule(cs, slot)
		return
	}
	n.endLinkRule(cs, pairSlot{corr: d.Corr, idx: d.Idx, qubit: q})
}

// newSlot takes an intermediate pair slot from the node's pool.
func (n *Node) newSlot(cs *circuit, s side) *pairSlot {
	slot := n.freeSlots
	if slot == nil {
		slot = &pairSlot{node: n}
		slot.onCutoff, slot.onSwap, slot.onMove = slot.expire, slot.swapped, slot.moved
	} else {
		n.freeSlots = slot.next
	}
	slot.cs, slot.side = cs, s
	return slot
}

// releaseSlot returns a slot no callback refers to any more to the pool.
func (n *Node) releaseSlot(s *pairSlot) {
	s.qubit, s.cutoff, s.cs, s.partner, s.dead = nil, sim.Event{}, nil, nil, false
	s.next = n.freeSlots
	n.freeSlots = s
}

// intermediateLinkRule is Algorithm 7: queue the pair, arm its cutoff, and
// swap as soon as an upstream and a downstream pair are both available.
// Swaps always take the oldest unexpired pairs (§5 evaluation setup).
//
// On carbon-storage platforms (§5.3) the freshly delivered half sits on the
// node's only communication qubit; it is first moved into a storage qubit so
// the electron can generate on the other link. The slot is not swappable
// until the move completes.
func (n *Node) intermediateLinkRule(cs *circuit, slot *pairSlot) {
	if cs.entry.Cutoff > 0 {
		slot.cutoff = n.sim.Schedule(cs.entry.Cutoff, slot.onCutoff)
	}
	l := &cs.links[slot.side]
	l.q = append(l.q, slot)
	if n.dev.Params().HasCarbon && slot.qubit.Kind() == device.Communication {
		slot.moving = true
		n.dev.MoveToStorage(slot.qubit, slot.onMove)
		return
	}
	n.trySwap(cs)
}

// moved completes the slot's move to storage.
func (s *pairSlot) moved(newQ *device.Qubit, ok bool) {
	n := s.node
	s.moving = false
	switch {
	case s.dead:
		// Expired or torn down mid-move: the half is gone, and this was
		// the slot's last reference.
		n.releaseSlot(s)
	case !ok:
		// No storage space: treat like a cutoff discard so the tracking
		// machinery cleans the chain up.
		n.sim.Cancel(s.cutoff)
		s.expire()
	default:
		s.qubit = newQ
		n.trySwap(s.cs)
	}
}

// swappable finds the oldest slot in q that is ready for a swap.
func swappable(q []*pairSlot) *pairSlot {
	for _, s := range q {
		if !s.moving {
			return s
		}
	}
	return nil
}

func (n *Node) trySwap(cs *circuit) {
	ups, downs := &cs.links[up], &cs.links[down]
	for {
		u, d := swappable(ups.q), swappable(downs.q)
		if u == nil || d == nil {
			return
		}
		ups.q = removeSlot(ups.q, u)
		downs.q = removeSlot(downs.q, d)
		n.sim.Cancel(u.cutoff)
		n.sim.Cancel(d.cutoff)
		u.partner = d
		n.dev.Swap(u.qubit, d.qubit, u.onSwap)
	}
}

// swapped completes the swap of this upstream slot and its partner (the
// tail halves of Algorithm 7): each side's pair is settled with a swap
// record naming the other, the upstream one first. Both slots die with it.
func (s *pairSlot) swapped(_ *device.Pair, outcome quantum.BellIndex) {
	n, cs, d := s.node, s.cs, s.partner
	cs.swaps++
	now := n.sim.Now()
	n.settle(cs, up, s.corr.Seq, fate{otherCorr: d.corr, otherIdx: d.idx, outcome: outcome, at: now})
	n.settle(cs, down, d.corr.Seq, fate{otherCorr: s.corr, otherIdx: s.idx, outcome: outcome, at: now})
	n.releaseSlot(s)
	n.releaseSlot(d)
}

// expire is the slot's cutoff timer: Algorithm 9. The pair is discarded and
// settled as expired. The slot dies with it unless a move is still pending,
// whose completion then releases it.
func (s *pairSlot) expire() {
	n, cs := s.node, s.cs
	l := &cs.links[s.side]
	l.q = removeSlot(l.q, s)
	cs.discards++
	n.dev.Free(s.qubit)
	n.settle(cs, s.side, s.corr.Seq, fate{expired: true, at: n.sim.Now()})
	if s.moving {
		s.dead = true
	} else {
		n.releaseSlot(s)
	}
}

func removeSlot(q []*pairSlot, s *pairSlot) []*pairSlot {
	for i, x := range q {
		if x == s {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// --- TRACK meets fate -------------------------------------------------------

// settle records the fate of pair seq on side s, or, if the pair's TRACK is
// already parked there, resolves the TRACK with it at once.
func (n *Node) settle(cs *circuit, s side, seq uint64, f fate) {
	l := &cs.links[s]
	if pt, ok := l.parked[seq]; ok {
		delete(l.parked, seq)
		n.resolve(cs, s, pt.msg, f)
		return
	}
	l.fates[seq] = f
}

// meetTrack is every node's TRACK arrival rule (Algorithms 2, 5 and 8): a
// TRACK whose pair's fate is known is resolved with it. Otherwise an
// intermediate parks it until the fate is settled, and an end-node applies
// its TRACK rule.
func (n *Node) meetTrack(cs *circuit, m TrackMsg) {
	s := toward(m.FromHead)
	l := &cs.links[s]
	if f, ok := l.fates[m.LinkCorr.Seq]; ok {
		delete(l.fates, m.LinkCorr.Seq)
		n.resolve(cs, s, m, f)
		return
	}
	if cs.role != RoleIntermediate {
		n.endTrackRule(cs, m)
		return
	}
	l.parked[m.LinkCorr.Seq] = parkedTrack{msg: m, at: n.sim.Now()}
}

// resolve answers a TRACK that arrived over side s with its pair's fate. An
// expiry sends EXPIRE back toward the TRACK's origin end-node, over s; a
// swap forwards the TRACK over the other side, rewritten to the partner
// pair.
func (n *Node) resolve(cs *circuit, s side, m TrackMsg, f fate) {
	if f.expired {
		cs.links[s].port.Send(ExpireMsg{Circuit: cs.entry.Circuit, Origin: m.Origin, ToHead: s == up})
		cs.expiresSent++
		return
	}
	m.LinkCorr = f.otherCorr
	m.Outcome = quantum.Combine(m.Outcome, f.otherIdx, f.outcome)
	cs.links[s.other()].port.Send(m)
}

// --- EXPIRE / TestResult relay ---------------------------------------------

func (n *Node) onExpire(cs *circuit, m ExpireMsg) {
	if cs.role == RoleIntermediate {
		cs.links[toward(m.ToHead)].port.Send(m)
		return
	}
	n.endExpireRule(cs, m)
}

func (n *Node) onTestResult(cs *circuit, m TestResultMsg) {
	if cs.role == RoleIntermediate {
		cs.links[toward(m.ToHead)].port.Send(m)
		return
	}
	n.headRecordTestResult(cs, m)
}
