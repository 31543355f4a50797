package sim

import (
	"testing"

	"qnp/internal/race"
)

// Run fires events until the queue drains. Production code always bounds
// a run with RunUntil; tests drain the queue.
func (s *Simulation) Run() {
	for s.Step() {
	}
}

// Cancelled reports whether e was cancelled while it was still pending. The
// bit lives in the recycled slot, so it stays accurate only until the slot
// is reused and its new occupant is cancelled too.
func (e Event) Cancelled() bool { return e.n != nil && e.n.cancelledGen == e.gen }

// Pending reports whether e is still queued to fire.
func (e Event) Pending() bool {
	return e.n != nil && e.n.gen == e.gen && e.n.cancelledGen != e.gen
}

// TestCancelAfterFireIsNoOp pins the generation-count contract: once an
// event fired, its slot may be reused by a new event, and cancelling the
// stale handle must not touch the new occupant.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	s := New(1)
	fired1 := false
	e1 := s.Schedule(10, func() { fired1 = true })
	s.Run()
	if !fired1 {
		t.Fatal("event did not fire")
	}
	if e1.Cancelled() {
		t.Error("fired event reports Cancelled")
	}
	// The slot freed by e1 is reused by e2 (pooling). Cancelling stale e1
	// must leave e2 untouched.
	fired2 := false
	e2 := s.Schedule(10, func() { fired2 = true })
	s.Cancel(e1)
	if !e2.Pending() {
		t.Fatal("cancelling a stale handle killed the slot's new occupant")
	}
	s.Run()
	if !fired2 {
		t.Error("recycled event did not fire after stale cancel")
	}
}

func TestCancelTwice(t *testing.T) {
	s := New(1)
	fired := 0
	e := s.Schedule(10, func() { fired++ })
	other := s.Schedule(20, func() { fired++ })
	s.Cancel(e)
	s.Cancel(e) // second cancel must not decrement live again or touch others
	if !e.Cancelled() {
		t.Error("Cancelled() = false after double cancel")
	}
	if got := s.Pending(); got != 1 {
		t.Errorf("Pending() = %d after double cancel, want 1", got)
	}
	s.Run()
	if fired != 1 {
		t.Errorf("fired %d events, want 1", fired)
	}
	_ = other
}

// TestRescheduleSameTimestamp pins the now-queue ordering: an event that
// schedules a follow-up at its own timestamp must see it fire in the same
// instant, after every event already queued for that instant, in seq order.
func TestRescheduleSameTimestamp(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(5, func() {
		order = append(order, 1)
		// Same-instant follow-up: scheduled mid-fire, must run after the
		// already-queued event 2 (earlier seq) but within time 5.
		s.Schedule(0, func() {
			order = append(order, 3)
			if s.Now() != 5 {
				t.Errorf("follow-up fired at %v, want 5", s.Now())
			}
		})
	})
	s.Schedule(5, func() { order = append(order, 2) })
	s.Schedule(6, func() { order = append(order, 4) })
	s.Run()
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestCancelNowQueueEntry covers lazy cancellation of same-instant events.
func TestCancelNowQueueEntry(t *testing.T) {
	s := New(1)
	fired := false
	var victim Event
	s.Schedule(5, func() {
		victim = s.Schedule(0, func() { fired = true })
	})
	s.Schedule(5, func() { s.Cancel(victim) })
	s.Run()
	if fired {
		t.Error("cancelled now-queue event fired")
	}
	if !victim.Cancelled() {
		t.Error("now-queue victim does not report Cancelled")
	}
}

// TestPoolingPreservesSeqOrder is the determinism gate for event pooling:
// heavy recycle churn must not disturb the (time, seq) tie-break order.
func TestPoolingPreservesSeqOrder(t *testing.T) {
	s := New(1)
	var order []int
	// Round 1: burn through a pile of events so the free list is hot and
	// nodes get reused in arbitrary pool order.
	for i := 0; i < 100; i++ {
		s.Schedule(Duration(i%7), func() {})
	}
	s.Run()
	// Round 2: schedule ties at one timestamp from recycled nodes; they
	// must fire in scheduling order regardless of which pooled node each
	// landed on.
	base := s.Now()
	for i := 0; i < 50; i++ {
		i := i
		s.ScheduleAt(base.Add(10), func() { order = append(order, i) })
	}
	// Interleave cancels to shuffle the free list mid-round.
	for i := 0; i < 25; i++ {
		e := s.ScheduleAt(base.Add(10), func() { t.Error("cancelled tie fired") })
		s.Cancel(e)
	}
	s.Run()
	if len(order) != 50 {
		t.Fatalf("fired %d ties, want 50", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("tie %d fired out of order: got seq position %d", i, got)
		}
	}
}

// TestAllocsPerScheduledEvent pins the pooled scheduler's acceptance gate:
// zero allocations per schedule/fire cycle with a prebuilt callback, i.e.
// at most the caller's one closure allocation per scheduled event.
func TestAllocsPerScheduledEvent(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	s := New(1)
	fn := func() {}
	// Warm the pool and the queue slices.
	for i := 0; i < 100; i++ {
		s.Schedule(Duration(i), fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(200, func() {
		s.Schedule(1, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("allocs per scheduled event = %v, want 0 (callback prebuilt)", allocs)
	}
}

// TestAllocsSteadyStateRun measures a self-perpetuating workload through
// Run: a chain of events each scheduling its successor. Steady state must
// cost at most 1 alloc per event — the unavoidable closure.
func TestAllocsSteadyStateRun(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	s := New(1)
	const events = 2000
	count := 0
	var next func()
	next = func() {
		count++
		if count < events {
			s.Schedule(1, next)
		}
	}
	// Warm-up chain.
	s.Schedule(1, next)
	s.Run()
	count = 0
	allocs := testing.AllocsPerRun(1, func() {
		count = 0
		s.Schedule(1, next)
		s.Run()
	})
	perEvent := allocs / float64(events)
	if perEvent > 1 {
		t.Errorf("steady-state allocs per event = %.3f, want ≤ 1", perEvent)
	}
}

// TestHandleAccessors covers the Event value API.
func TestHandleAccessors(t *testing.T) {
	var zero Event
	if zero.Pending() || zero.Cancelled() {
		t.Error("zero Event reports state")
	}
	s := New(1)
	s.Cancel(zero) // must be a no-op
	e := s.Schedule(7, func() {})
	if e.n.at != 7 {
		t.Errorf("scheduled at %v, want 7", e.n.at)
	}
	if !e.Pending() {
		t.Error("scheduled event not Pending")
	}
	s.Run()
	if e.Pending() {
		t.Error("fired event still Pending")
	}
}
