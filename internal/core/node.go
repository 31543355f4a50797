package core

import (
	"fmt"

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
	node         *Node
	cs           *circuit
	fromUpstream bool
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

// swapRecord is the temporary record logged after every entanglement swap
// (§4.1 "Swap records"): the partner pair's correlator and heralded state
// plus the two-bit swap outcome. Records are soft state: chains whose both
// ends were drained never send a TRACK to consume them, so a TTL sweep
// reclaims them (at is the creation time).
type swapRecord struct {
	otherCorr linklayer.Correlator
	otherIdx  quantum.BellIndex
	outcome   quantum.BellIndex
	at        sim.Time
}

// parkedTrack is a TRACK waiting at a node for its swap to complete.
type parkedTrack struct {
	msg TrackMsg
	at  sim.Time
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
	next      *inTransitEntry // pool link
}

// nodeFrees reports whether the node, not the application, frees this
// entry's local half when the entry is discarded (failed cross-check,
// EXPIRE or teardown): a measured half is already consumed, and an early
// hand-off to an owning application is the application's.
func (it *inTransitEntry) nodeFrees() bool {
	return !it.measured && !it.earlyOwned
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

	// upPort and downPort send to the neighbours; resolved at install.
	upPort, downPort netsim.Port

	// Correlator-keyed maps below hold correlators of a single link — the
	// up* maps the upstream link's, the down* maps the downstream link's,
	// the end-node maps the end's own link's — so Correlator.Seq alone
	// keys them. A TRACK's LinkCorr names the link it arrived over, and an
	// EXPIRE or test result reaching an end carries that end's origin.

	// Intermediate node state (Appendix C Algorithms 7–9). All maps are
	// soft state with TTL reclamation (see sweep).
	upQ, downQ             []*pairSlot
	upRecord, downRecord   map[uint64]swapRecord
	upTrack, downTrack     map[uint64]parkedTrack
	upExpired, downExpired map[uint64]sim.Time

	// End-node state (Algorithms 1–6).
	dmx        *demux
	inTransit  map[uint64]*inTransitEntry
	endExpired map[uint64]sim.Time
	queued     []*reqState // shaped (delayed) requests, head-end only
	tests      testStats

	// Link layer registration state.
	upRegistered, downRegistered bool

	// Stats.
	swaps, discards, expiresSent, trackMismatch uint64
}

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

// Device returns the node's quantum device.
func (n *Node) Device() *device.Device { return n.dev }

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
		entry:       e,
		role:        e.Role(),
		upRecord:    make(map[uint64]swapRecord),
		downRecord:  make(map[uint64]swapRecord),
		upTrack:     make(map[uint64]parkedTrack),
		downTrack:   make(map[uint64]parkedTrack),
		upExpired:   make(map[uint64]sim.Time),
		downExpired: make(map[uint64]sim.Time),
		inTransit:   make(map[uint64]*inTransitEntry),
		endExpired:  make(map[uint64]sim.Time),
	}
	cs.tests.headBits = make(map[uint64]headTestBit)
	if e.Upstream != "" {
		cs.upPort = n.net.Port(n.id, e.Upstream)
	}
	if e.Downstream != "" {
		cs.downPort = n.net.Port(n.id, e.Downstream)
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

// Soft-state reclamation: swap records, discard records, end-node
// tombstones and parked TRACKs all describe chains whose resolution
// messages normally consume them — but a chain whose both ends were drained
// (e.g. pairs arriving after a request completed) never resolves. The sweep
// drops entries older than several cutoff intervals; any TRACK that would
// have consumed them has long since been answered or abandoned.
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
		for k, v := range cs.upRecord {
			if v.at < cutoff {
				delete(cs.upRecord, k)
			}
		}
		for k, v := range cs.downRecord {
			if v.at < cutoff {
				delete(cs.downRecord, k)
			}
		}
		for k, v := range cs.upTrack {
			if v.at < cutoff {
				delete(cs.upTrack, k)
			}
		}
		for k, v := range cs.downTrack {
			if v.at < cutoff {
				delete(cs.downTrack, k)
			}
		}
		for k, v := range cs.upExpired {
			if v < cutoff {
				delete(cs.upExpired, k)
			}
		}
		for k, v := range cs.downExpired {
			if v < cutoff {
				delete(cs.downExpired, k)
			}
		}
		for k, v := range cs.endExpired {
			if v < cutoff {
				delete(cs.endExpired, k)
			}
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
	for _, q := range [][]*pairSlot{cs.upQ, cs.downQ} {
		for _, slot := range q {
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
	if rate := n.requestedRate(cs); rate != 0 && cs.downRegistered {
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
			n.onTrack(cs, m)
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

func (n *Node) sendUp(cs *circuit, msg netsim.Message) { cs.upPort.Send(msg) }

func (n *Node) sendDown(cs *circuit, msg netsim.Message) { cs.downPort.Send(msg) }

// --- Link layer management ------------------------------------------------

// registerLinks (re-)activates the circuit's link layer requests at this
// node per the FORWARD's rate field.
func (n *Node) registerLinks(cs *circuit, rate float64) {
	e := cs.entry
	if e.Downstream != "" {
		eng := n.fabric.Between(string(n.id), string(e.Downstream))
		lpr := n.effectiveLPR(cs, rate)
		if !cs.downRegistered {
			label := e.DownLabel
			if err := eng.Register(string(n.id), label, e.DownMinFidelity, lpr, func(d linklayer.Delivery) {
				n.onLinkPair(cs, d, false)
			}); err != nil {
				panic(fmt.Sprintf("core %s: link register: %v", n.id, err))
			}
			cs.downRegistered = true
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
	if e.Upstream != "" && !cs.upRegistered {
		eng := n.fabric.Between(string(n.id), string(e.Upstream))
		// The upstream neighbour owns this link's fidelity/rate settings
		// (its DownMinFidelity); we register with the same values, which
		// the routing table guarantees to match: our upstream link is the
		// neighbour's downstream link.
		if err := eng.Register(string(n.id), e.UpLabel, e.UpMinFidelity, e.UpMaxLPR, func(d linklayer.Delivery) {
			n.onLinkPair(cs, d, true)
		}); err != nil {
			panic(fmt.Sprintf("core %s: link register: %v", n.id, err))
		}
		cs.upRegistered = true
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
	if cs.downRegistered {
		n.fabric.Between(string(n.id), string(e.Downstream)).Deactivate(string(n.id), e.DownLabel)
		cs.downRegistered = false
	}
	if cs.upRegistered {
		n.fabric.Between(string(n.id), string(e.Upstream)).Deactivate(string(n.id), e.UpLabel)
		cs.upRegistered = false
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
	n.sendDown(cs, m)
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
	n.sendDown(cs, m)
}

// --- LINK rules -----------------------------------------------------------

// onLinkPair dispatches a link layer delivery to the role-specific rule.
func (n *Node) onLinkPair(cs *circuit, d linklayer.Delivery, fromUpstream bool) {
	q := d.Pair.Half(d.Pair.LocalSide(string(n.id)))
	if cs.role == RoleIntermediate {
		slot := n.newSlot(cs, fromUpstream)
		slot.corr, slot.idx, slot.qubit = d.Corr, d.Idx, q
		n.intermediateLinkRule(cs, slot, fromUpstream)
		return
	}
	n.endLinkRule(cs, pairSlot{corr: d.Corr, idx: d.Idx, qubit: q})
}

// newSlot takes an intermediate pair slot from the node's pool.
func (n *Node) newSlot(cs *circuit, fromUpstream bool) *pairSlot {
	s := n.freeSlots
	if s == nil {
		s = &pairSlot{node: n}
		s.onCutoff, s.onSwap, s.onMove = s.expire, s.swapped, s.moved
	} else {
		n.freeSlots = s.next
	}
	s.cs, s.fromUpstream = cs, fromUpstream
	return s
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
func (n *Node) intermediateLinkRule(cs *circuit, slot *pairSlot, fromUpstream bool) {
	if cs.entry.Cutoff > 0 {
		slot.cutoff = n.sim.Schedule(cs.entry.Cutoff, slot.onCutoff)
	}
	if fromUpstream {
		cs.upQ = append(cs.upQ, slot)
	} else {
		cs.downQ = append(cs.downQ, slot)
	}
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
	for {
		up := swappable(cs.upQ)
		down := swappable(cs.downQ)
		if up == nil || down == nil {
			return
		}
		cs.upQ = removeSlot(cs.upQ, up)
		cs.downQ = removeSlot(cs.downQ, down)
		n.sim.Cancel(up.cutoff)
		n.sim.Cancel(down.cutoff)
		up.partner = down
		n.dev.Swap(up.qubit, down.qubit, up.onSwap)
	}
}

// swapped completes the swap of this upstream slot and its partner; both
// slots die with it.
func (s *pairSlot) swapped(_ *device.Pair, outcome quantum.BellIndex) {
	n, down := s.node, s.partner
	n.swapDone(s.cs, s, down, outcome)
	n.releaseSlot(s)
	n.releaseSlot(down)
}

// swapDone logs swap records and forwards any parked TRACKs (the tail halves
// of Algorithm 7).
func (n *Node) swapDone(cs *circuit, up, down *pairSlot, outcome quantum.BellIndex) {
	cs.swaps++
	if pt, ok := cs.upTrack[up.corr.Seq]; ok {
		delete(cs.upTrack, up.corr.Seq)
		tm := pt.msg
		tm.LinkCorr = down.corr
		tm.Outcome = quantum.Combine(tm.Outcome, down.idx, outcome)
		n.sendDown(cs, tm)
	} else {
		cs.upRecord[up.corr.Seq] = swapRecord{otherCorr: down.corr, otherIdx: down.idx, outcome: outcome, at: n.sim.Now()}
	}
	if pt, ok := cs.downTrack[down.corr.Seq]; ok {
		delete(cs.downTrack, down.corr.Seq)
		tm := pt.msg
		tm.LinkCorr = up.corr
		tm.Outcome = quantum.Combine(tm.Outcome, up.idx, outcome)
		n.sendUp(cs, tm)
	} else {
		cs.downRecord[down.corr.Seq] = swapRecord{otherCorr: up.corr, otherIdx: up.idx, outcome: outcome, at: n.sim.Now()}
	}
}

// expire is the slot's cutoff timer. The slot dies with it unless a move
// is still pending, whose completion then releases it.
func (s *pairSlot) expire() {
	n := s.node
	n.expiryRule(s.cs, s, s.fromUpstream)
	if s.moving {
		s.dead = true
	} else {
		n.releaseSlot(s)
	}
}

// expiryRule is Algorithm 9: the cutoff timer popped for a queued pair.
func (n *Node) expiryRule(cs *circuit, slot *pairSlot, fromUpstream bool) {
	if fromUpstream {
		cs.upQ = removeSlot(cs.upQ, slot)
	} else {
		cs.downQ = removeSlot(cs.downQ, slot)
	}
	cs.discards++
	n.dev.Free(slot.qubit)
	if fromUpstream {
		if pt, ok := cs.upTrack[slot.corr.Seq]; ok {
			delete(cs.upTrack, slot.corr.Seq)
			n.sendUp(cs, ExpireMsg{Circuit: cs.entry.Circuit, Origin: pt.msg.Origin, ToHead: true})
			cs.expiresSent++
		} else {
			cs.upExpired[slot.corr.Seq] = n.sim.Now()
		}
		return
	}
	if pt, ok := cs.downTrack[slot.corr.Seq]; ok {
		delete(cs.downTrack, slot.corr.Seq)
		n.sendDown(cs, ExpireMsg{Circuit: cs.entry.Circuit, Origin: pt.msg.Origin, ToHead: false})
		cs.expiresSent++
	} else {
		cs.downExpired[slot.corr.Seq] = n.sim.Now()
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

// --- TRACK rules ----------------------------------------------------------

func (n *Node) onTrack(cs *circuit, m TrackMsg) {
	if cs.role == RoleIntermediate {
		n.intermediateTrackRule(cs, m)
		return
	}
	n.endTrackRule(cs, m)
}

// intermediateTrackRule is Algorithm 8: resolve the TRACK against a swap
// record, an expiry record, or park it until the swap completes.
func (n *Node) intermediateTrackRule(cs *circuit, m TrackMsg) {
	if m.FromHead {
		if rec, ok := cs.upRecord[m.LinkCorr.Seq]; ok {
			delete(cs.upRecord, m.LinkCorr.Seq)
			m.LinkCorr = rec.otherCorr
			m.Outcome = quantum.Combine(m.Outcome, rec.otherIdx, rec.outcome)
			n.sendDown(cs, m)
			return
		}
		if _, dead := cs.upExpired[m.LinkCorr.Seq]; dead {
			delete(cs.upExpired, m.LinkCorr.Seq)
			n.sendUp(cs, ExpireMsg{Circuit: cs.entry.Circuit, Origin: m.Origin, ToHead: true})
			cs.expiresSent++
			return
		}
		cs.upTrack[m.LinkCorr.Seq] = parkedTrack{msg: m, at: n.sim.Now()}
		return
	}
	if rec, ok := cs.downRecord[m.LinkCorr.Seq]; ok {
		delete(cs.downRecord, m.LinkCorr.Seq)
		m.LinkCorr = rec.otherCorr
		m.Outcome = quantum.Combine(m.Outcome, rec.otherIdx, rec.outcome)
		n.sendUp(cs, m)
		return
	}
	if _, dead := cs.downExpired[m.LinkCorr.Seq]; dead {
		delete(cs.downExpired, m.LinkCorr.Seq)
		n.sendDown(cs, ExpireMsg{Circuit: cs.entry.Circuit, Origin: m.Origin, ToHead: false})
		cs.expiresSent++
		return
	}
	cs.downTrack[m.LinkCorr.Seq] = parkedTrack{msg: m, at: n.sim.Now()}
}

// --- EXPIRE / TestResult relay ---------------------------------------------

func (n *Node) onExpire(cs *circuit, m ExpireMsg) {
	if cs.role == RoleIntermediate {
		if m.ToHead {
			n.sendUp(cs, m)
		} else {
			n.sendDown(cs, m)
		}
		return
	}
	n.endExpireRule(cs, m)
}

func (n *Node) onTestResult(cs *circuit, m TestResultMsg) {
	if cs.role == RoleIntermediate {
		if m.ToHead {
			n.sendUp(cs, m)
		} else {
			n.sendDown(cs, m)
		}
		return
	}
	n.headRecordTestResult(cs, m)
}
