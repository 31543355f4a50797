// Package core implements the Quantum Network Protocol (QNP) — the paper's
// primary contribution: a connection-oriented quantum data plane protocol
// that turns link-level entangled pairs into end-to-end pairs via
// entanglement swapping, with lazy entanglement tracking, cutoff timers for
// decoherence management, aggregation of requests onto virtual circuits, and
// policing/shaping of incoming requests.
//
// The protocol rules follow Appendix C of the paper: head-end, tail-end and
// intermediate LINK / TRACK / EXPIRE rules (Algorithms 1–9), the FORWARD /
// COMPLETE / TRACK / EXPIRE message set, swap records, discard records,
// epochs and the symmetric demultiplexer with cross-checks.
//
// The per-pair path allocates little. Each Node pools its records: an
// intermediate pair slot goes back to the pool where its last reference
// dies — when its swap completes, when its cutoff expires, or, for a slot
// that expired or tore down while a storage move was pending, when the move
// completes; an end-node's in-transit entry, which embeds its slot, goes
// back when it leaves the in-transit map, unless a measurement callback may
// still hold it. Messages go out through netsim Ports resolved when a
// circuit is installed.
//
// A circuit keeps its state per side of the node: up toward the head-end,
// down toward the tail-end. Each side's link holds its port, its pair queue
// and two soft-state maps: fates (a pair's swap record or expiry) and
// parked TRACKs. The intermediate rules reduce to one event, a pair's TRACK
// meeting its fate, whichever comes first waiting for the other. Every map
// of correlators holds a single link's, so Correlator.Seq keys it.
package core

import (
	"qnp/internal/linklayer"
	"qnp/internal/netsim"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

// CircuitID identifies a virtual circuit. The QNP treats it as an opaque
// handle owned by the signalling protocol (Appendix C.1).
type CircuitID string

// RequestID identifies a request between a pair of end-point addresses
// (Appendix C.1). Assigned by the application.
type RequestID string

// RequestType says when a pair's qubit is consumed (Appendix C.2 FORWARD:
// KEEP / EARLY / MEASURE).
type RequestType int

// Request types.
const (
	// Keep delivers the qubit once creation is confirmed by tracking.
	Keep RequestType = iota
	// Early delivers the qubit as soon as it is available at the end-node;
	// the application takes over handling of expiry notices and waits for
	// tracking info to post-process.
	Early
	// Measure has the QNP measure the qubit immediately; the classical
	// result is withheld until tracking confirms the pair, so only outcomes
	// from successful pairs are delivered.
	Measure
)

func (t RequestType) String() string {
	switch t {
	case Keep:
		return "KEEP"
	case Early:
		return "EARLY"
	case Measure:
		return "MEASURE"
	}
	return "RequestType(?)"
}

// Request is what an application submits to the head-end node (§3.2 class
// of service). Exactly one service shape applies:
//
//   - measure directly: NumPairs with Deadline, or Rate pairs/second;
//   - create and keep: NumPairs with Window (Δt) between first and last.
type Request struct {
	ID      RequestID
	Circuit CircuitID
	Type    RequestType
	// MeasureBasis applies to Measure requests.
	MeasureBasis quantum.Basis
	// NumPairs is the number of pairs wanted; 0 means an open-ended
	// rate-based request (terminated with Cancel).
	NumPairs int
	// Deadline is T relative to submission; 0 means none.
	//
	//qnetlint:allow testonly the paper's §3.2 "N pairs within T" service shape, settable by library users through the qnet.Request alias
	Deadline sim.Duration
	// Window is Δt for create-and-keep (max spacing first→last pair).
	//
	//qnetlint:allow testonly the paper's §3.2 create-and-keep Δt service shape, settable by library users through the qnet.Request alias
	Window sim.Duration
	// Rate is R for rate-based measure-directly requests (pairs/second).
	Rate float64
	// FinalState, if set, asks for delivery in a specific Bell state; the
	// head-end applies the Pauli correction (unavailable for Early).
	FinalState *quantum.BellIndex
	// TestEvery makes every k-th pair a fidelity test round (§3.4 quality
	// of service: estimating delivered fidelity by measuring a sample);
	// 0 disables testing.
	TestEvery int
}

// MinEER is the request's minimum end-to-end rate in pairs/second, used for
// policing and shaping (§4.1): measure directly → N/T, R, or 0 with no
// deadline; create and keep → N/Δt.
func (r Request) MinEER() float64 {
	if r.Type == Keep && r.Window > 0 && r.NumPairs > 0 {
		return float64(r.NumPairs) / r.Window.Seconds()
	}
	if r.Rate > 0 {
		return r.Rate
	}
	if r.Deadline > 0 && r.NumPairs > 0 {
		return float64(r.NumPairs) / r.Deadline.Seconds()
	}
	return 0
}

// RoutingEntry is the per-circuit data plane state installed at every node
// by the signalling protocol (§4.1 "Routing table").
type RoutingEntry struct {
	Circuit CircuitID
	// Upstream/Downstream are the neighbouring nodes on the circuit; empty
	// at the head-end/tail-end respectively.
	Upstream   netsim.NodeID
	Downstream netsim.NodeID
	// HeadEnd and TailEnd name the circuit's end-nodes.
	HeadEnd, TailEnd netsim.NodeID
	// UpLabel/DownLabel are the link-labels on the adjacent links.
	UpLabel, DownLabel linklayer.Label
	// DownMinFidelity is the minimum link-pair fidelity to request on the
	// downstream link (chosen by routing to meet the end-to-end target).
	DownMinFidelity float64
	// DownMaxLPR is the maximum link-pair rate reserved on the downstream
	// link (pairs/s).
	DownMaxLPR float64
	// UpMinFidelity/UpMaxLPR mirror the upstream neighbour's downstream
	// settings so this node can register its side of the upstream link's
	// request with matching parameters.
	UpMinFidelity float64
	UpMaxLPR      float64
	// MaxEER is the circuit's allocated end-to-end rate (pairs/s).
	MaxEER float64
	// Cutoff is the qubit discard deadline at intermediate nodes; 0 disables
	// the cutoff mechanism (the oracle baseline runs without it).
	Cutoff sim.Duration
	// EndToEndFidelity records the circuit's fidelity target (informational;
	// used by test rounds and the oracle baseline).
	EndToEndFidelity float64
}

// Role is a node's role on a circuit.
type Role int

// Circuit roles.
const (
	RoleHead Role = iota
	RoleTail
	RoleIntermediate
)

func (r Role) String() string {
	switch r {
	case RoleHead:
		return "head"
	case RoleTail:
		return "tail"
	}
	return "intermediate"
}

// Role derives the node's role from the entry.
func (e RoutingEntry) Role() Role {
	switch {
	case e.Upstream == "":
		return RoleHead
	case e.Downstream == "":
		return RoleTail
	}
	return RoleIntermediate
}

// maxLPRSentinel in ForwardMsg.Rate means "request the maximum LPR" (the
// default unless only rate-based requests are active, §4.1 "Continuous link
// generation").
const maxLPRSentinel = -1

// ForwardMsg propagates a request from the head-end to the tail-end
// (Appendix C.2). It initiates/updates link layer requests at each node and
// gives the tail-end its book-keeping information.
type ForwardMsg struct {
	Circuit      CircuitID
	Request      RequestID
	Type         RequestType
	MeasureBasis quantum.Basis
	NumPairs     int
	FinalState   *quantum.BellIndex
	TestEvery    int
	// Rate is the end-to-end rate the sum of all active requests requires;
	// maxLPRSentinel means "maximum LPR".
	Rate float64
}

// CompleteMsg is the reverse of FORWARD: it updates/terminates link layer
// requests and notifies the tail-end of a request's completion.
type CompleteMsg struct {
	Circuit CircuitID
	Request RequestID
	Rate    float64
}

// TrackMsg is the key quantum data plane message: it follows the chain of
// link-pairs and entanglement swaps along the circuit, collecting swap
// records, so the end-nodes can identify the delivered pair and its Bell
// state (§4.1 "Lazy entanglement tracking", Appendix C.2).
type TrackMsg struct {
	Circuit CircuitID
	// Request is the origin end-node's demultiplexing assignment; the
	// receiving end cross-checks it against its own.
	Request RequestID
	// Origin is the correlator of the link-pair that begins the chain (at
	// the message's origin end-node); EXPIRE uses it to address the broken
	// chain's end qubit.
	Origin linklayer.Correlator
	// LinkCorr identifies the chain's current link-pair; every swap node
	// rewrites it to the next link's correlator.
	LinkCorr linklayer.Correlator
	// Outcome is the estimated Bell state of the chain so far, folded with
	// each swap record's two-bit outcome.
	Outcome quantum.BellIndex
	// Epoch is set by the head-end: the epoch to activate after this pair
	// is delivered (0 on tail-initiated TRACKs).
	Epoch uint64
	// FromHead gives the travel direction: head-initiated TRACKs travel
	// downstream, tail-initiated upstream.
	FromHead bool
	// Test marks a fidelity test round; the pair is consumed by measurement
	// in TestBasis at both ends instead of being delivered.
	Test      bool
	TestBasis quantum.Basis
}

// ExpireMsg notifies an end-node that the chain its TRACK followed was
// broken by a qubit discarded at a cutoff (Appendix C.2). End-nodes do not
// run cutoff timers — they discard only on EXPIRE, which closes the paper's
// half-delivered-pair window.
type ExpireMsg struct {
	Circuit CircuitID
	Origin  linklayer.Correlator
	// ToHead gives the relay direction toward the origin end-node.
	ToHead bool
}

// TestResultMsg carries a fidelity-test measurement outcome from the tail
// back to the head (relayed hop-by-hop along the circuit).
type TestResultMsg struct {
	Circuit CircuitID
	Origin  linklayer.Correlator
	Basis   quantum.Basis
	Bit     int
	ToHead  bool
}
