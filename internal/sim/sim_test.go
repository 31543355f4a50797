package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30, func() { got = append(got, 3) })
	s.Schedule(10, func() { got = append(got, 1) })
	s.Schedule(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(10, func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	// Double-cancel and cancel-after-fire must be no-ops.
	s.Cancel(e)
	e2 := s.Schedule(1, func() {})
	s.Run()
	s.Cancel(e2)
}

func TestCancelFromWithinEvent(t *testing.T) {
	s := New(1)
	fired := false
	var victim Event
	s.Schedule(5, func() { s.Cancel(victim) })
	victim = s.Schedule(10, func() { fired = true })
	s.Run()
	if fired {
		t.Error("event cancelled mid-run still fired")
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New(1)
	s.Schedule(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.ScheduleAt(5, func() {})
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var got []Time
	for _, d := range []Duration{10, 20, 30, 40} {
		s.Schedule(d, func() { got = append(got, s.Now()) })
	}
	s.RunUntil(25)
	if len(got) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(got))
	}
	if s.Now() != 25 {
		t.Errorf("Now() = %v after RunUntil(25)", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", s.Pending())
	}
	s.RunUntil(100)
	if len(got) != 4 {
		t.Errorf("fired %d events total, want 4", len(got))
	}
	if s.Now() != 100 {
		t.Errorf("Now() = %v after RunUntil(100)", s.Now())
	}
}

func TestStepUntil(t *testing.T) {
	s := New(1)
	var got []Time
	for _, d := range []Duration{10, 20, 30} {
		s.Schedule(d, func() { got = append(got, s.Now()) })
	}
	if !s.StepUntil(15) {
		t.Fatal("StepUntil(15) refused the event at t=10")
	}
	// The next event (t=20) lies beyond the deadline: nothing may fire and
	// the clock must not move.
	if s.StepUntil(15) {
		t.Error("StepUntil(15) fired an event beyond the deadline")
	}
	if s.Now() != 10 {
		t.Errorf("Now() = %v after bounded stepping to 15, want 10", s.Now())
	}
	// Inclusive boundary: an event exactly at the deadline fires.
	if !s.StepUntil(20) {
		t.Error("StepUntil(20) refused the event exactly at the deadline")
	}
	s.RunUntil(100)
	if len(got) != 3 {
		t.Errorf("fired %d events total, want 3", len(got))
	}
	if s.StepUntil(1000) {
		t.Error("StepUntil on an empty queue returned true")
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	s := New(1)
	s.RunFor(Second)
	if s.Now() != Time(Second) {
		t.Errorf("Now() = %v, want 1s", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.Schedule(1, recurse)
		}
	}
	s.Schedule(0, recurse)
	s.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if s.Now() != 99 {
		t.Errorf("Now() = %v, want 99", s.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		s := New(seed)
		var out []float64
		for i := 0; i < 50; i++ {
			s.Schedule(Duration(s.Rand().Intn(1000)), func() {
				out = append(out, s.Rand().Float64())
			})
		}
		s.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with same seed diverged at %d", i)
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical runs")
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock ends at the maximum delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := New(7)
		var fired []Time
		for _, d := range delays {
			s.Schedule(Duration(d), func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		var max Duration
		for _, d := range delays {
			if Duration(d) > max {
				max = Duration(d)
			}
		}
		return s.Now() == Time(max) && len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset of events fires exactly the rest.
func TestQuickCancelSubset(t *testing.T) {
	f := func(delays []uint16, mask uint64) bool {
		s := New(3)
		fired := 0
		want := 0
		var evs []Event
		for _, d := range delays {
			evs = append(evs, s.Schedule(Duration(d), func() { fired++ }))
		}
		for i, e := range evs {
			if mask&(1<<(uint(i)%64)) != 0 {
				s.Cancel(e)
			} else {
				want++
			}
		}
		s.Run()
		return fired == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0).Add(2 * Second).Add(500 * Millisecond)
	if tm.Seconds() != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", tm.Seconds())
	}
	if tm.Sub(Time(Second)) != 1500*Millisecond {
		t.Errorf("Sub = %v", tm.Sub(Time(Second)))
	}
	if d := DurationFromSeconds(0.25); d != 250*Millisecond {
		t.Errorf("DurationFromSeconds(0.25) = %v", d)
	}
	if d := (10 * Millisecond).Scale(1.5); d != 15*Millisecond {
		t.Errorf("Scale = %v", d)
	}
	if (2 * Millisecond).Milliseconds() != 2 {
		t.Error("Milliseconds conversion wrong")
	}
	if Time(1500*Millisecond).String() != "1.500000000s" {
		t.Errorf("String = %q", Time(1500*Millisecond).String())
	}
	if Duration(1500*Millisecond).String() != "1.500000000s" {
		t.Errorf("String = %q", Duration(1500*Millisecond).String())
	}
}
