package sim

import (
	"fmt"
	"math/rand"

	"qnp/internal/linalg"
)

// Event is a generation-counted handle to a scheduled callback. The zero
// Event is valid and refers to nothing: Cancel on it is a no-op. Handles are
// small values — store and copy them freely.
//
// Fired and cancelled events are recycled through an intrusive pool, so a
// handle may outlive the slot it points at. The generation count keeps stale
// handles safe: Cancel on a handle whose event already fired (or was already
// cancelled and its slot reused) is a no-op rather than a corruption of
// whatever event now occupies the slot.
type Event struct {
	n   *eventNode
	gen uint64
}

// eventNode is the pooled representation of a scheduled callback. Nodes are
// owned by the Simulation and cycle through: free list → queued (heap or
// now-queue) → fired/cancelled → free list. gen increments on every
// recycle, invalidating outstanding handles.
type eventNode struct {
	at  Time
	seq uint64 // FIFO tie-break for events at the same instant
	fn  func()
	// index is the node's heap position, or -1 while in the now-queue or
	// the free list.
	index int32
	gen   uint64
	// cancelledGen records which generation of this node was cancelled
	// while pending; compared against handle generations only.
	cancelledGen uint64
	next         *eventNode // free-list link
}

// Simulation is a discrete-event simulation: a virtual clock, an event
// queue, and a deterministic random number source. The zero value is not
// usable; construct with New.
//
// The queue is two structures. Events scheduled for a later instant go into
// a hand-rolled binary heap ordered by (time, seq). Events scheduled for the
// *current* instant — the dominant pattern in busy protocol runs, where a
// firing event cascades into same-timestamp follow-ups — go into a FIFO
// now-queue and bypass the heap entirely. Seq order across the two is
// preserved: a heap entry at the current instant was necessarily scheduled
// before every now-queue entry (otherwise it would be in the now-queue), so
// the heap drains first at each instant.
type Simulation struct {
	now      Time
	heap     []*eventNode
	nowq     []*eventNode
	nowqHead int
	free     *eventNode
	seq      uint64
	live     int // queued, uncancelled events
	rng      *rand.Rand
	// processed counts events that have fired, for diagnostics and for
	// runaway-simulation guards in tests.
	processed uint64
	// ws is the simulation's matrix pool, made on first use (Workspace).
	ws *linalg.Workspace
}

// New creates a simulation whose random stream is derived from seed.
// Identical seeds give identical runs.
func New(seed int64) *Simulation {
	return &Simulation{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source. All model
// randomness must come from here; nothing in the repository calls the
// global rand functions.
func (s *Simulation) Rand() *rand.Rand { return s.rng }

// Workspace returns the simulation's matrix pool, made on first use. Every
// device built on the simulation draws its pair states and scratch
// matrices from it, so a state taken at one node goes back to the same
// pool whichever node consumes it. Like the simulation itself, the pool
// belongs to one goroutine.
func (s *Simulation) Workspace() *linalg.Workspace {
	if s.ws == nil {
		s.ws = linalg.NewWorkspace()
	}
	return s.ws
}

// Processed returns the number of events fired so far.
func (s *Simulation) Processed() uint64 { return s.processed }

// alloc takes a node from the free list, or makes one.
func (s *Simulation) alloc() *eventNode {
	if n := s.free; n != nil {
		s.free = n.next
		n.next = nil
		return n
	}
	return &eventNode{gen: 1, index: -1}
}

// recycle invalidates all outstanding handles to n and returns it to the
// free list. The closure reference is dropped so it can be collected.
func (s *Simulation) recycle(n *eventNode) {
	n.fn = nil
	n.gen++
	n.index = -1
	n.next = s.free
	s.free = n
}

// ScheduleAt schedules fn to run at absolute time at. Scheduling in the past
// panics: it always indicates a protocol bug, and silently reordering time
// would corrupt every experiment built on top.
func (s *Simulation) ScheduleAt(at Time, fn func()) Event {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	n := s.alloc()
	n.at, n.seq, n.fn = at, s.seq, fn
	s.seq++
	s.live++
	if at == s.now {
		n.index = -1
		s.nowq = append(s.nowq, n)
	} else {
		s.heapPush(n)
	}
	return Event{n: n, gen: n.gen}
}

// Schedule schedules fn to run after delay d. Negative delays panic.
func (s *Simulation) Schedule(d Duration, fn func()) Event {
	return s.ScheduleAt(s.now.Add(d), fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event — or the zero Event — is a no-op, which lets
// protocol code drop timers unconditionally.
func (s *Simulation) Cancel(e Event) {
	n := e.n
	if n == nil || n.gen != e.gen || n.cancelledGen == e.gen {
		return
	}
	n.cancelledGen = e.gen
	s.live--
	if n.index >= 0 {
		s.heapRemove(int(n.index))
		s.recycle(n)
	}
	// Now-queue entries are pruned lazily when the queue head is consulted.
}

// pruneNowq discards cancelled entries at the head of the now-queue and
// resets the queue once drained so its capacity is reused.
func (s *Simulation) pruneNowq() {
	for s.nowqHead < len(s.nowq) {
		n := s.nowq[s.nowqHead]
		if n.cancelledGen != n.gen {
			break
		}
		s.nowq[s.nowqHead] = nil
		s.nowqHead++
		s.recycle(n)
	}
	if s.nowqHead == len(s.nowq) && s.nowqHead > 0 {
		s.nowq = s.nowq[:0]
		s.nowqHead = 0
	}
}

// pop removes and returns the next event in (time, seq) order, or nil.
func (s *Simulation) pop() *eventNode {
	s.pruneNowq()
	if len(s.heap) > 0 && (s.heap[0].at == s.now || s.nowqHead >= len(s.nowq)) {
		return s.heapPop()
	}
	if s.nowqHead < len(s.nowq) {
		n := s.nowq[s.nowqHead]
		s.nowq[s.nowqHead] = nil
		s.nowqHead++
		if s.nowqHead == len(s.nowq) {
			s.nowq = s.nowq[:0]
			s.nowqHead = 0
		}
		return n
	}
	return nil
}

// nextTime reports the time of the next pending event.
func (s *Simulation) nextTime() (Time, bool) {
	s.pruneNowq()
	if s.nowqHead < len(s.nowq) {
		return s.now, true
	}
	if len(s.heap) > 0 {
		return s.heap[0].at, true
	}
	return 0, false
}

// fire advances the clock to n, recycles its slot (the event is no longer
// pending once it runs — cancelling it from inside its own callback is a
// no-op), and runs the callback.
func (s *Simulation) fire(n *eventNode) {
	s.now = n.at
	s.processed++
	s.live--
	fn := n.fn
	s.recycle(n)
	fn()
}

// Step fires the next pending event and returns true, or returns false if
// the queue is empty.
func (s *Simulation) Step() bool {
	n := s.pop()
	if n == nil {
		return false
	}
	s.fire(n)
	return true
}

// StepUntil fires the next pending event only if it is scheduled at or
// before deadline. It returns false — firing nothing and leaving the clock
// untouched — when the queue is empty or the next event lies beyond the
// deadline. This is the bounded building block for waits that must never
// overshoot a virtual-time budget (circuit installation, scenario horizons).
func (s *Simulation) StepUntil(deadline Time) bool {
	t, ok := s.nextTime()
	if !ok || t > deadline {
		return false
	}
	return s.Step()
}

// RunUntil fires events with time ≤ deadline, then advances the clock to the
// deadline. Events scheduled beyond the deadline stay queued.
func (s *Simulation) RunUntil(deadline Time) {
	for s.StepUntil(deadline) {
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor runs the simulation for a span of virtual time from now.
func (s *Simulation) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// Pending returns the number of queued events.
func (s *Simulation) Pending() int { return s.live }

// --- Binary heap over (at, seq), no interface boxing ----------------------

func eventLess(a, b *eventNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulation) heapPush(n *eventNode) {
	n.index = int32(len(s.heap))
	s.heap = append(s.heap, n)
	s.siftUp(len(s.heap) - 1)
}

func (s *Simulation) heapPop() *eventNode {
	n := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap[0].index = 0
	s.heap[last] = nil
	s.heap = s.heap[:last]
	if last > 1 {
		s.siftDown(0)
	}
	n.index = -1
	return n
}

// heapRemove removes the node at position i.
func (s *Simulation) heapRemove(i int) {
	last := len(s.heap) - 1
	if i != last {
		s.heap[i] = s.heap[last]
		s.heap[i].index = int32(i)
	}
	s.heap[last] = nil
	s.heap = s.heap[:last]
	if i < last {
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
}

func (s *Simulation) siftUp(i int) {
	n := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := s.heap[parent]
		if !eventLess(n, p) {
			break
		}
		s.heap[i] = p
		p.index = int32(i)
		i = parent
	}
	s.heap[i] = n
	n.index = int32(i)
}

// siftDown restores the heap below i; it reports whether the node moved.
func (s *Simulation) siftDown(i int) bool {
	n := s.heap[i]
	start := i
	half := len(s.heap) / 2
	for i < half {
		child := 2*i + 1
		if r := child + 1; r < len(s.heap) && eventLess(s.heap[r], s.heap[child]) {
			child = r
		}
		c := s.heap[child]
		if !eventLess(c, n) {
			break
		}
		s.heap[i] = c
		c.index = int32(i)
		i = child
	}
	s.heap[i] = n
	n.index = int32(i)
	return i > start
}
