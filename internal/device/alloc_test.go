package device

import (
	"testing"

	"qnp/internal/hardware"
	"qnp/internal/quantum"
	"qnp/internal/race"
	"qnp/internal/sim"
)

// TestAllocsExactPair gates an exact pair's per-event physics at zero
// allocs/op once its device's workspace is warm: lazy decoherence on both
// sides, the move's depolarising noise and the attempt dephasing (each in
// one pass with the decoherence before it) and a Pauli correction.
func TestAllocsExactPair(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	s, a, b := twoDevices(t)
	p := makePair(t, s, a, b, quantum.PhiPlus)
	if p.scalar {
		t.Fatal("default devices should hold exact pairs")
	}
	now := s.Now()
	step := func() {
		now = now.Add(10 * sim.Millisecond)
		p.AdvanceTo(now)
		now = now.Add(sim.Millisecond)
		p.depolarizeAt(now, 0, 0.01)
		now = now.Add(sim.Millisecond)
		p.dephaseAt(now, 1, 0.02)
		p.ApplyPauli(1, 1, 1)
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("exact pair AdvanceTo+depolarise+dephase+Pauli allocs/op = %v, want 0", allocs)
	}
}

// TestAllocsDeviceOps gates the device's operation records: once warm, a
// move to storage and a measurement allocate nothing. Their completions run
// from recycled records, and their states come from and go back to the
// simulation's pool.
func TestAllocsDeviceOps(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	s := sim.New(1)
	a := New(s, "a", hardware.NearTerm())
	b := New(s, "b", hardware.NearTerm())
	a.AddCommQubits("ab", 1)
	b.AddCommQubits("ab", 1)
	a.AddStorageQubits(2)
	ws := s.Workspace()
	// wire reuses one Pair record, so the loops below allocate only what
	// the operations do.
	p := &Pair{}
	wire := func() (*Qubit, *Qubit) {
		qa, ok1 := a.AllocComm("ab")
		qb, ok2 := b.AllocComm("ab")
		if !ok1 || !ok2 {
			t.Fatal("allocation failed")
		}
		rho := ws.GetRaw(4, 4)
		copy(rho.Data, quantum.BellProjectorCached(quantum.PhiPlus).Data)
		*p = Pair{rho: rho}
		wirePair(p, s.Now(), quantum.PhiPlus, qa, qb)
		return qa, qb
	}

	held, qb := wire()
	moved := func(q *Qubit, ok bool) {
		if !ok {
			t.Fatal("move to storage failed")
		}
		held = q
	}
	// The half moves from storage qubit to storage qubit.
	move := func() {
		a.MoveToStorage(held, moved)
		s.Step()
	}
	move()
	if allocs := testing.AllocsPerRun(50, move); allocs != 0 {
		t.Errorf("MoveToStorage allocs/op = %v, want 0", allocs)
	}
	a.Free(held)
	b.Free(qb)

	measured := func(int) {}
	measure := func() {
		qa, qb := wire()
		a.MeasureHalf(qa, quantum.ZBasis, measured)
		s.Step()
		b.Free(qb)
	}
	measure()
	if allocs := testing.AllocsPerRun(50, measure); allocs != 0 {
		t.Errorf("MeasureHalf allocs/op = %v, want 0", allocs)
	}
}
