package baseline

import (
	"testing"

	"qnp/internal/core"
	"qnp/internal/device"
	"qnp/internal/hardware"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

func TestFilterAcceptsAboveThreshold(t *testing.T) {
	s := sim.New(1)
	a := device.New(s, "a", hardware.Simulation())
	b := device.New(s, "b", hardware.Simulation())
	a.AddCommQubits("l", 4)
	b.AddCommQubits("l", 4)

	mk := func(f float64) *device.Pair {
		qa, _ := a.AllocComm("l")
		qb, _ := b.AllocComm("l")
		return device.NewPair(s.Now(), quantum.WernerFor(f, quantum.PhiPlus), quantum.PhiPlus, qa, qb)
	}
	filt := &Filter{Threshold: 0.8}
	good := core.Delivered{Pair: mk(0.9), State: quantum.PhiPlus, At: s.Now()}
	bad := core.Delivered{Pair: mk(0.6), State: quantum.PhiPlus, At: s.Now()}
	if !filt.Accept(good) {
		t.Error("good pair rejected")
	}
	if filt.Accept(bad) {
		t.Error("bad pair accepted")
	}
	// A pair whose *declared* state is wrong fails the oracle even though
	// its raw state is fine — the oracle judges what the application sees.
	wrong := core.Delivered{Pair: mk(0.95), State: quantum.PsiMinus, At: s.Now()}
	if filt.Accept(wrong) {
		t.Error("misdeclared pair accepted")
	}
	if filt.Accepted != 1 || filt.Rejected != 2 {
		t.Errorf("counters = %d/%d", filt.Accepted, filt.Rejected)
	}
	// Measure deliveries (no pair handle) pass through.
	if !filt.Accept(core.Delivered{}) {
		t.Error("measure delivery rejected")
	}
}
