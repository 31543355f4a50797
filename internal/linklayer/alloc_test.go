package linklayer

import (
	"testing"

	"qnp/internal/device"
	"qnp/internal/hardware"
	"qnp/internal/race"
	"qnp/internal/sim"
)

// TestAllocsLinkRound gates a steady-state Werner generation round — the
// round, its completion event, delivery to both ends and the frees that
// re-dispatch the next round — at one allocation: the Pair itself.
func TestAllocsLinkRound(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	s := sim.New(1)
	p := hardware.Simulation()
	a := device.NewWithPhysics(s, "a", p, device.PhysicsWerner)
	b := device.NewWithPhysics(s, "b", p, device.PhysicsWerner)
	name := LinkName("a", "b")
	a.AddCommQubits(name, 2)
	b.AddCommQubits(name, 2)
	e := NewEngine(s, name, hardware.LabLink(), a, b)
	release := func(dev *device.Device, side int) Consumer {
		return func(d Delivery) { dev.Free(d.Pair.Half(side)) }
	}
	if e.Register("a", "l", 0.85, 100, release(a, 0)) != nil || e.Register("b", "l", 0.85, 100, release(b, 1)) != nil {
		t.Fatal("register failed")
	}
	round := func() {
		for want := e.Stats().PairsDelivered + 1; e.Stats().PairsDelivered < want; {
			s.Step()
		}
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs > 1 {
		t.Errorf("allocs per Werner link round = %v, want ≤ 1", allocs)
	}
}
