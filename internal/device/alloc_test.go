package device

import (
	"testing"

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
