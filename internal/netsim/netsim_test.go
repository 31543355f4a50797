package netsim

import (
	"testing"

	"qnp/internal/race"
	"qnp/internal/sim"
)

func build(t *testing.T) (*sim.Simulation, *Network) {
	t.Helper()
	s := sim.New(1)
	n := New(s)
	for _, id := range []NodeID{"a", "b", "c"} {
		n.AddNode(id)
	}
	n.Connect("a", "b", 10*sim.Microsecond)
	n.Connect("b", "c", 20*sim.Microsecond)
	return s, n
}

func TestDeliveryWithDelay(t *testing.T) {
	s, n := build(t)
	var gotAt sim.Time
	var gotFrom NodeID
	var gotMsg Message
	n.Handle("b", func(from NodeID, msg Message) {
		gotAt, gotFrom, gotMsg = s.Now(), from, msg
	})
	n.Send("a", "b", "hello")
	s.Run()
	if gotAt != sim.Time(10*sim.Microsecond) {
		t.Errorf("delivered at %v, want 10µs", gotAt)
	}
	if gotFrom != "a" || gotMsg != "hello" {
		t.Errorf("got %v from %v", gotMsg, gotFrom)
	}
}

func TestInOrderDelivery(t *testing.T) {
	s, n := build(t)
	var got []int
	n.Handle("b", func(_ NodeID, msg Message) { got = append(got, msg.(int)) })
	for i := 0; i < 20; i++ {
		n.Send("a", "b", i)
	}
	s.Run()
	if len(got) != 20 {
		t.Fatalf("delivered %d messages", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered delivery: %v", got)
		}
	}
}

func TestProcessingDelayKnob(t *testing.T) {
	s, n := build(t)
	var gotAt sim.Time
	n.Handle("b", func(NodeID, Message) { gotAt = s.Now() })
	n.SetProcessingDelay(5 * sim.Millisecond)
	if n.ProcessingDelay() != 5*sim.Millisecond {
		t.Error("ProcessingDelay readback wrong")
	}
	n.Send("a", "b", 1)
	s.Run()
	want := sim.Time(10*sim.Microsecond + 5*sim.Millisecond)
	if gotAt != want {
		t.Errorf("delivered at %v, want %v", gotAt, want)
	}
}

func TestMultipleHandlers(t *testing.T) {
	s, n := build(t)
	calls := 0
	n.Handle("b", func(NodeID, Message) { calls++ })
	n.Handle("b", func(NodeID, Message) { calls++ })
	n.Send("a", "b", 1)
	s.Run()
	if calls != 2 {
		t.Errorf("handler calls = %d, want 2", calls)
	}
}

func TestTopologyQueries(t *testing.T) {
	_, n := build(t)
	if !n.Connected("a", "b") || !n.Connected("b", "a") {
		t.Error("Connected symmetric lookup failed")
	}
	if n.Connected("a", "c") {
		t.Error("a-c should not be connected")
	}
	if n.Delay("b", "c") != 20*sim.Microsecond {
		t.Error("Delay lookup wrong")
	}
	nb := n.Neighbors("b")
	if len(nb) != 2 {
		t.Errorf("Neighbors(b) = %v", nb)
	}
	if got := n.PathDelay([]NodeID{"a", "b", "c"}); got != 30*sim.Microsecond {
		t.Errorf("PathDelay = %v", got)
	}
	if !n.HasNode("a") || n.HasNode("zz") {
		t.Error("HasNode wrong")
	}
}

func TestSendWithoutChannelPanics(t *testing.T) {
	_, n := build(t)
	defer func() {
		if recover() == nil {
			t.Error("Send without channel did not panic")
		}
	}()
	n.Send("a", "c", 1)
}

func TestDuplicateNodePanics(t *testing.T) {
	_, n := build(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode did not panic")
		}
	}()
	n.AddNode("a")
}

func TestDuplicateChannelPanics(t *testing.T) {
	_, n := build(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Connect did not panic")
		}
	}()
	n.Connect("b", "a", sim.Microsecond)
}

func TestStatsCount(t *testing.T) {
	s, n := build(t)
	n.Handle("b", func(NodeID, Message) {})
	for i := 0; i < 7; i++ {
		n.Send("a", "b", i)
	}
	s.Run()
	if n.Stats().MessagesSent != 7 {
		t.Errorf("MessagesSent = %d", n.Stats().MessagesSent)
	}
}

func TestBidirectional(t *testing.T) {
	s, n := build(t)
	got := map[NodeID]bool{}
	n.Handle("a", func(from NodeID, _ Message) { got["a<-"+from] = true })
	n.Handle("b", func(from NodeID, _ Message) { got["b<-"+from] = true })
	n.Send("a", "b", 1)
	n.Send("b", "a", 2)
	s.Run()
	if !got["a<-b"] || !got["b<-a"] {
		t.Errorf("bidirectional delivery failed: %v", got)
	}
}

func TestPortReachesHandlersAddedAfterResolution(t *testing.T) {
	s, n := build(t)
	p := n.Port("a", "b")
	var got []Message
	n.Handle("b", func(from NodeID, msg Message) {
		if from != "a" {
			t.Errorf("from = %v, want a", from)
		}
		got = append(got, msg)
	})
	p.Send(1)
	n.SetProcessingDelay(sim.Millisecond)
	p.Send(2)
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("got %v, want [1 2]", got)
	}
	if s.Now() != sim.Time(10*sim.Microsecond+sim.Millisecond) {
		t.Errorf("last delivery at %v: the processing delay is read at send time", s.Now())
	}
	if n.Stats().MessagesSent != 2 {
		t.Errorf("MessagesSent = %d, want 2", n.Stats().MessagesSent)
	}
}

// TestDeliveryReleasedBeforeHandlers checks that a handler relaying a
// message reuses the record that carried it.
func TestDeliveryReleasedBeforeHandlers(t *testing.T) {
	s, n := build(t)
	ab, ba := n.Port("a", "b"), n.Port("b", "a")
	hops := 0
	n.Handle("b", func(NodeID, Message) {
		if n.free == nil {
			t.Error("delivery record still held while its handlers run")
		}
		hops++
		ba.Send(hops)
	})
	n.Handle("a", func(_ NodeID, msg Message) {
		if msg.(int) < 5 {
			ab.Send(msg)
		}
	})
	ab.Send(0)
	s.Run()
	if hops != 5 {
		t.Fatalf("relayed %d hops, want 5", hops)
	}
	records := 0
	for d := n.free; d != nil; d = d.next {
		records++
	}
	if records != 1 {
		t.Errorf("relay used %d delivery records, want 1", records)
	}
}

// TestAllocsPortSend gates the steady-state send path at zero allocations:
// a resolved Port sending a pointer-shaped message, which needs no boxing,
// and its delivery.
func TestAllocsPortSend(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	s, n := build(t)
	p := n.Port("a", "b")
	seen := 0
	n.Handle("b", func(NodeID, Message) { seen++ })
	msg := &struct{ seq int }{}
	step := func() {
		p.Send(msg)
		s.Run()
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("Port.Send + delivery allocs/op = %v, want 0", allocs)
	}
	if seen != 102 {
		t.Errorf("delivered %d messages, want 102", seen)
	}
}
