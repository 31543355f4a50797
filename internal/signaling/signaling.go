// Package signaling implements the paper's source-routed signalling
// protocol (§3.3): it installs virtual circuits along a path computed by
// the routing controller, in the way RSVP-TE installs MPLS circuits. A
// SETUP message travels head→tail installing the routing-table entry and
// link-labels hop by hop; a CONFIRM returns tail→head, after which the
// circuit is usable. TEARDOWN removes the state.
package signaling

import (
	"fmt"

	"qnp/internal/core"
	"qnp/internal/linklayer"
	"qnp/internal/netsim"
	"qnp/internal/routing"
)

// SetupMsg installs one circuit hop by hop. Hop indexes into Path.
type SetupMsg struct {
	Circuit core.CircuitID
	Plan    routing.Plan
	Hop     int
}

// ConfirmMsg acknowledges installation back to the head-end.
type ConfirmMsg struct {
	Circuit core.CircuitID
	Hop     int
}

// TeardownMsg removes the circuit at each node it visits.
type TeardownMsg struct {
	Circuit core.CircuitID
	Plan    routing.Plan
	Hop     int
}

// UpdateMsg re-fits a circuit's end-to-end rate allocation at each node on
// its path (§4.4: allocations are recomputed as circuits join and leave).
// It rides the same hop-by-hop relay as FORWARD/SETUP — the head applies
// the new MaxEER locally (re-pacing its first hop) and each downstream node
// updates its routing-table entry in turn.
type UpdateMsg struct {
	Circuit core.CircuitID
	MaxEER  float64
	Path    []string
	Hop     int
}

// Signaler drives circuit installation. One instance manages the whole
// simulated network (it registers a handler on every node, the way each
// node would run a signalling daemon).
type Signaler struct {
	net     *netsim.Network
	nodes   map[netsim.NodeID]*core.Node
	onReady map[core.CircuitID]func()
}

// New creates the signalling plane over the given QNP nodes.
func New(nw *netsim.Network, nodes []*core.Node) *Signaler {
	s := &Signaler{
		net:     nw,
		nodes:   make(map[netsim.NodeID]*core.Node),
		onReady: make(map[core.CircuitID]func()),
	}
	for _, n := range nodes {
		n := n
		s.nodes[n.ID()] = n
		nw.Handle(n.ID(), func(from netsim.NodeID, msg netsim.Message) {
			s.handle(n, from, msg)
		})
	}
	return s
}

// Establish installs a circuit along the plan's path. The head-end entry is
// installed immediately; the rest of the path installs as the SETUP message
// propagates. onReady (optional) fires when the CONFIRM returns to the head.
func (s *Signaler) Establish(id core.CircuitID, plan routing.Plan, onReady func()) error {
	if len(plan.Path) < 2 {
		return fmt.Errorf("signaling: path too short: %v", plan.Path)
	}
	head, ok := s.nodes[netsim.NodeID(plan.Path[0])]
	if !ok {
		return fmt.Errorf("signaling: unknown head-end %q", plan.Path[0])
	}
	if onReady != nil {
		s.onReady[id] = onReady
	}
	head.InstallCircuit(entryFor(id, plan, 0))
	s.net.Send(netsim.NodeID(plan.Path[0]), netsim.NodeID(plan.Path[1]), SetupMsg{Circuit: id, Plan: plan, Hop: 1})
	return nil
}

// Teardown removes the circuit along its path, starting at the head.
func (s *Signaler) Teardown(id core.CircuitID, plan routing.Plan) {
	head := s.nodes[netsim.NodeID(plan.Path[0])]
	head.UninstallCircuit(id)
	s.net.Send(netsim.NodeID(plan.Path[0]), netsim.NodeID(plan.Path[1]), TeardownMsg{Circuit: id, Plan: plan, Hop: 1})
}

// UpdateAllocation re-fits an installed circuit's MaxEER along its path:
// immediately at the head (which owns pacing), then hop by hop downstream.
func (s *Signaler) UpdateAllocation(id core.CircuitID, path []string, maxEER float64) {
	if len(path) < 2 {
		return
	}
	head, ok := s.nodes[netsim.NodeID(path[0])]
	if !ok {
		return
	}
	head.UpdateCircuitEER(id, maxEER)
	s.net.Send(netsim.NodeID(path[0]), netsim.NodeID(path[1]),
		UpdateMsg{Circuit: id, MaxEER: maxEER, Path: path, Hop: 1})
}

func (s *Signaler) handle(n *core.Node, _ netsim.NodeID, msg netsim.Message) {
	switch m := msg.(type) {
	case SetupMsg:
		n.InstallCircuit(entryFor(m.Circuit, m.Plan, m.Hop))
		path := m.Plan.Path
		if m.Hop+1 < len(path) {
			s.net.Send(netsim.NodeID(path[m.Hop]), netsim.NodeID(path[m.Hop+1]),
				SetupMsg{Circuit: m.Circuit, Plan: m.Plan, Hop: m.Hop + 1})
			return
		}
		// Tail reached: confirm back along the path.
		s.net.Send(netsim.NodeID(path[m.Hop]), netsim.NodeID(path[m.Hop-1]),
			ConfirmMsg{Circuit: m.Circuit, Hop: m.Hop - 1})
	case ConfirmMsg:
		if m.Hop > 0 {
			path := s.pathOf(n, m.Circuit)
			if path != nil {
				s.net.Send(netsim.NodeID(path[m.Hop]), netsim.NodeID(path[m.Hop-1]),
					ConfirmMsg{Circuit: m.Circuit, Hop: m.Hop - 1})
			}
			return
		}
		if fn := s.onReady[m.Circuit]; fn != nil {
			delete(s.onReady, m.Circuit)
			fn()
		}
	case TeardownMsg:
		n.UninstallCircuit(m.Circuit)
		path := m.Plan.Path
		if m.Hop+1 < len(path) {
			s.net.Send(netsim.NodeID(path[m.Hop]), netsim.NodeID(path[m.Hop+1]),
				TeardownMsg{Circuit: m.Circuit, Plan: m.Plan, Hop: m.Hop + 1})
		}
	case UpdateMsg:
		n.UpdateCircuitEER(m.Circuit, m.MaxEER)
		if m.Hop+1 < len(m.Path) {
			s.net.Send(netsim.NodeID(m.Path[m.Hop]), netsim.NodeID(m.Path[m.Hop+1]),
				UpdateMsg{Circuit: m.Circuit, MaxEER: m.MaxEER, Path: m.Path, Hop: m.Hop + 1})
		}
	}
}

// pathOf reconstructs the circuit's full path by walking the installed
// routing entries' upstream pointers to the head and downstream pointers to
// the tail (the CONFIRM relay needs hop indexes).
func (s *Signaler) pathOf(n *core.Node, id core.CircuitID) []string {
	var up []string
	cur := n
	for {
		ent, ok := cur.Circuit(id)
		if !ok {
			return nil
		}
		up = append([]string{string(cur.ID())}, up...)
		if ent.Upstream == "" {
			break
		}
		cur = s.nodes[ent.Upstream]
		if cur == nil {
			return nil
		}
	}
	cur = n
	var down []string
	for {
		ent, ok := cur.Circuit(id)
		if !ok {
			return nil
		}
		if ent.Downstream == "" {
			break
		}
		down = append(down, string(ent.Downstream))
		cur = s.nodes[ent.Downstream]
		if cur == nil {
			return nil
		}
	}
	return append(up, down...)
}

// entryFor builds the per-node routing-table entry for hop i of the plan.
func entryFor(id core.CircuitID, plan routing.Plan, i int) core.RoutingEntry {
	path := plan.Path
	e := core.RoutingEntry{
		Circuit:          id,
		HeadEnd:          netsim.NodeID(path[0]),
		TailEnd:          netsim.NodeID(path[len(path)-1]),
		MaxEER:           plan.MaxEER,
		Cutoff:           plan.Cutoff,
		EndToEndFidelity: plan.EndToEndFidelity,
	}
	if i > 0 {
		e.Upstream = netsim.NodeID(path[i-1])
		e.UpLabel = labelFor(id)
		e.UpMinFidelity = plan.LinkFidelity
		e.UpMaxLPR = plan.MaxLPR
	}
	if i < len(path)-1 {
		e.Downstream = netsim.NodeID(path[i+1])
		e.DownLabel = labelFor(id)
		e.DownMinFidelity = plan.LinkFidelity
		e.DownMaxLPR = plan.MaxLPR
	}
	return e
}

// labelFor allocates the link-label for a circuit. Labels are link-unique;
// a circuit traverses each link at most once, so the circuit ID itself is a
// valid (and debuggable) label on every hop.
func labelFor(id core.CircuitID) linklayer.Label { return linklayer.Label(string(id)) }
