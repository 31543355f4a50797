package device

import (
	"math/rand"
	"testing"

	"qnp/internal/hardware"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

// refFreeCommCount is FreeCommCount as a linear scan of the memory.
func refFreeCommCount(d *Device, link string) int {
	n := 0
	for _, q := range d.qubits {
		if q.free && q.kind == Communication && (q.link == link || q.link == "") {
			n++
		}
	}
	return n
}

// TestFreeCommCountMatchesScan drives random alloc, free, pair, swap, move
// and mid-move release sequences and checks the counters against the scan
// after every step.
func TestFreeCommCountMatchesScan(t *testing.T) {
	links := []string{"", "l1", "l2", "l3"}
	for seed := int64(1); seed <= 20; seed++ {
		s := sim.New(seed)
		rng := rand.New(rand.NewSource(seed))
		nt := hardware.NearTerm()
		d := New(s, "d", nt)
		peer := New(s, "p", nt)
		d.AddCommQubits("l1", 2)
		d.AddCommQubits("", 1)
		d.AddStorageQubits(2)
		d.AddCommQubits("l2", 1)
		d.AddCommQubits("", 1)
		peer.AddCommQubits("", 8)
		var held []*Qubit
		check := func(step int, op string) {
			t.Helper()
			for _, l := range links {
				if got, want := d.FreeCommCount(l), refFreeCommCount(d, l); got != want {
					t.Fatalf("seed %d step %d (%s): FreeCommCount(%q) = %d, scan says %d", seed, step, op, l, got, want)
				}
			}
		}
		// live drops held qubits the device freed behind our back (swaps,
		// moves, discards).
		live := func() {
			kept := held[:0]
			for _, q := range held {
				if !q.free {
					kept = append(kept, q)
				}
			}
			held = kept
		}
		pairOn := func(q *Qubit) bool {
			if q.pair != nil || q.kind != Communication {
				return false
			}
			r, ok := peer.AllocComm("")
			if !ok {
				return false
			}
			NewPair(s.Now(), quantum.BellProjector(quantum.PhiPlus), quantum.PhiPlus, q, r)
			return true
		}
		check(0, "init")
		for step := 1; step <= 200; step++ {
			var op string
			switch k := rng.Intn(6); {
			case k <= 1:
				op = "alloc"
				if q, ok := d.AllocComm(links[rng.Intn(len(links))]); ok {
					held = append(held, q)
				}
			case k == 2 && len(held) > 0:
				op = "free"
				i := rng.Intn(len(held))
				d.Free(held[i])
				held = append(held[:i], held[i+1:]...)
			case k == 3 && len(held) >= 2:
				op = "swap"
				q1, q2 := held[0], held[1]
				if pairOn(q1) && pairOn(q2) {
					// Swapping qubits must stay allocated until it completes.
					d.Swap(q1, q2, func(*Pair, quantum.BellIndex) {})
					drain(s)
				}
			case k == 4 && len(held) > 0:
				op = "move"
				q := held[rng.Intn(len(held))]
				if q.pair != nil || pairOn(q) {
					d.MoveToStorage(q, func(nq *Qubit, ok bool) {
						if ok {
							held = append(held, nq)
						}
					})
					if rng.Intn(2) == 0 {
						op = "move, released mid-move"
						d.Free(q)
					}
					// As on the near-term platform, where the link layer
					// waits out local operations, nothing allocates the
					// qubit again before the move completes.
					drain(s)
				}
			default:
				op = "run"
				s.RunFor(sim.Duration(rng.Intn(int(sim.Millisecond))))
			}
			live()
			check(step, op)
		}
		drain(s)
		live()
		check(-1, "drain")
		for _, q := range held {
			d.Free(q)
		}
		for _, l := range links {
			if got, want := d.FreeCommCount(l), refFreeCommCount(d, l); got != want || refFreeCommCount(d, "l1") != 4 {
				t.Fatalf("seed %d: after freeing everything FreeCommCount(%q) = %d, scan %d", seed, l, got, want)
			}
		}
	}
}

// TestMoveOfReleasedHalfFails checks that a move whose half is freed before
// it completes reports failure and returns the storage qubit.
func TestMoveOfReleasedHalfFails(t *testing.T) {
	s := sim.New(1)
	nt := hardware.NearTerm()
	a, b := New(s, "a", nt), New(s, "b", nt)
	a.AddCommQubits("", 1)
	a.AddStorageQubits(1)
	b.AddCommQubits("", 1)
	qa, _ := a.AllocComm("")
	qb, _ := b.AllocComm("")
	NewPair(s.Now(), quantum.BellProjector(quantum.PhiPlus), quantum.PhiPlus, qa, qb)
	calls, moved := 0, true
	a.MoveToStorage(qa, func(_ *Qubit, ok bool) { calls, moved = calls+1, ok })
	a.Free(qa)
	drain(s)
	if calls != 1 || moved {
		t.Fatalf("move callback ran %d times with ok=%v, want once with ok=false", calls, moved)
	}
	for _, q := range a.qubits {
		if !q.free {
			t.Errorf("qubit %d (%v) still allocated", q.id, q.Kind())
		}
	}
}
