// Package netsim provides the classical message plane of the simulated
// quantum network: nodes joined by bidirectional channels that deliver
// messages reliably and in order after a propagation delay.
//
// The paper's QNP "requires that all its control messages are transmitted
// reliably and in order ... we may simply rely on a transport protocol to
// provide these guarantees (e.g. TCP or QUIC)". This package is that
// abstraction: no loss, no reordering, plus a configurable processing delay
// so the Fig. 10c experiment can sweep "the time between the sending of any
// QNP message to the moment that message is processed at the next node".
//
// A Port is a resolved from→to sending handle: it holds the channel delay
// and the destination's handler list, so a protocol that sends on the same
// hop for every pair resolves it once instead of hashing node IDs per
// message. Handlers registered after a Port was resolved still receive its
// messages. In-flight messages ride pooled delivery records; a record goes
// back to the pool before its handlers run, so a handler that sends reuses
// it at once.
package netsim

import (
	"fmt"

	"qnp/internal/sim"
)

// NodeID names a node. IDs are unique within a Network.
type NodeID string

// Message is any protocol payload. Handlers type-switch on the concrete
// type, the same way a demultiplexing transport hands frames to protocols.
type Message any

// Handler consumes messages delivered to a node.
type Handler func(from NodeID, msg Message)

type channel struct {
	delay sim.Duration
}

// node holds a registered node's handlers.
type node struct {
	handlers []Handler
}

type linkKey struct{ a, b NodeID }

func keyFor(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Stats counts classical-plane activity.
type Stats struct {
	MessagesSent uint64
}

// Network is the classical plane. All methods must be called from the
// simulation goroutine (the simulator is single-threaded by design).
type Network struct {
	sim      *sim.Simulation
	channels map[linkKey]*channel
	nodes    map[NodeID]*node
	// processing is the extra per-hop delay added to every delivery — the
	// Fig. 10c knob.
	processing sim.Duration
	stats      Stats
	// free recycles delivery records.
	free *delivery
}

// New creates an empty classical network on the given simulation.
func New(s *sim.Simulation) *Network {
	return &Network{
		sim:      s,
		channels: make(map[linkKey]*channel),
		nodes:    make(map[NodeID]*node),
	}
}

// AddNode registers a node. Adding the same node twice panics — topology is
// static configuration, and a duplicate always means a miswired experiment.
func (n *Network) AddNode(id NodeID) {
	if _, ok := n.nodes[id]; ok {
		panic(fmt.Sprintf("netsim: duplicate node %q", id))
	}
	n.nodes[id] = &node{}
}

// HasNode reports whether id is registered.
func (n *Network) HasNode(id NodeID) bool {
	_, ok := n.nodes[id]
	return ok
}

// Connect joins two registered nodes with a bidirectional channel of the
// given one-way propagation delay.
func (n *Network) Connect(a, b NodeID, delay sim.Duration) {
	if !n.HasNode(a) || !n.HasNode(b) {
		panic(fmt.Sprintf("netsim: Connect %q-%q with unregistered node", a, b))
	}
	if a == b {
		panic("netsim: self-loop")
	}
	k := keyFor(a, b)
	if _, ok := n.channels[k]; ok {
		panic(fmt.Sprintf("netsim: duplicate channel %q-%q", a, b))
	}
	n.channels[k] = &channel{delay: delay}
}

// Delay returns the one-way propagation delay of the a-b channel.
func (n *Network) Delay(a, b NodeID) sim.Duration {
	c, ok := n.channels[keyFor(a, b)]
	if !ok {
		panic(fmt.Sprintf("netsim: no channel %q-%q", a, b))
	}
	return c.delay
}

// SetProcessingDelay sets the extra per-hop delay applied to every message
// from now on (it does not affect messages already in flight).
func (n *Network) SetProcessingDelay(d sim.Duration) { n.processing = d }

// Handle registers a message handler at a node. Multiple handlers receive
// every message in registration order; protocols filter by message type.
func (n *Network) Handle(id NodeID, h Handler) {
	if !n.HasNode(id) {
		panic(fmt.Sprintf("netsim: Handle on unregistered node %q", id))
	}
	nd := n.nodes[id]
	nd.handlers = append(nd.handlers, h)
}

// Send transmits msg from one node to an adjacent node. Delivery happens
// after the channel's propagation delay plus the processing delay; messages
// between the same pair of nodes are never reordered (the event queue is
// FIFO at equal timestamps and delays are constant per channel).
func (n *Network) Send(from, to NodeID, msg Message) {
	n.Port(from, to).Send(msg)
}

// Port is a resolved sending handle for one direction of a channel. The
// zero Port is not usable.
type Port struct {
	net   *Network
	from  NodeID
	delay sim.Duration
	to    *node
}

// Port resolves the from→to handle. It panics if the nodes share no
// channel.
func (n *Network) Port(from, to NodeID) Port {
	c, ok := n.channels[keyFor(from, to)]
	if !ok {
		panic(fmt.Sprintf("netsim: Send %q→%q without channel", from, to))
	}
	return Port{net: n, from: from, delay: c.delay, to: n.nodes[to]}
}

// Send transmits msg over the port, exactly as Network.Send does.
func (p Port) Send(msg Message) {
	n := p.net
	n.stats.MessagesSent++
	d := n.free
	if d == nil {
		d = &delivery{net: n}
		d.fire = d.deliver
	} else {
		n.free = d.next
	}
	d.from, d.to, d.msg = p.from, p.to, msg
	n.sim.Schedule(p.delay+n.processing, d.fire)
}

// delivery is a message in flight. Records are recycled through
// Network.free; fire is deliver bound once at creation.
type delivery struct {
	net  *Network
	from NodeID
	to   *node
	msg  Message
	fire func()
	next *delivery
}

// deliver hands the message to the destination's handlers. It releases the
// record first: the handlers may send, and the record is theirs to reuse.
func (d *delivery) deliver() {
	n, from, to, msg := d.net, d.from, d.to, d.msg
	d.to, d.msg = nil, nil
	d.next = n.free
	n.free = d
	for _, h := range to.handlers {
		h(from, msg)
	}
}

// Stats returns counters accumulated so far.
func (n *Network) Stats() Stats { return n.stats }

// PathDelay sums the propagation delays along a node path.
func (n *Network) PathDelay(path []NodeID) sim.Duration {
	var d sim.Duration
	for i := 0; i+1 < len(path); i++ {
		d += n.Delay(path[i], path[i+1])
	}
	return d
}
