package device

import (
	"math"
	"testing"

	"qnp/internal/asmcheck"
	"qnp/internal/hardware"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

// drain fires events until the queue is empty.
func drain(s *sim.Simulation) {
	for s.Step() {
	}
}

// FidelityAt returns the oracle fidelity with the true Bell index at time t.
func (p *Pair) FidelityAt(t sim.Time) float64 {
	return p.FidelityWith(t, p.trueIdx)
}

// RemoteNode returns the node holding the other half relative to node.
func (p *Pair) RemoteNode(node string) string {
	s := p.LocalSide(node)
	if s < 0 {
		return ""
	}
	if other := p.halves[1-s]; other != nil {
		return other.dev.id
	}
	return ""
}

func twoDevices(t *testing.T) (*sim.Simulation, *Device, *Device) {
	t.Helper()
	s := sim.New(1)
	a := New(s, "a", hardware.Simulation())
	b := New(s, "b", hardware.Simulation())
	a.AddCommQubits("ab", 2)
	b.AddCommQubits("ab", 2)
	return s, a, b
}

func makePair(t *testing.T, s *sim.Simulation, a, b *Device, idx quantum.BellIndex) *Pair {
	t.Helper()
	qa, ok1 := a.AllocComm("ab")
	qb, ok2 := b.AllocComm("ab")
	if !ok1 || !ok2 {
		t.Fatal("allocation failed")
	}
	return NewPair(s.Now(), quantum.BellProjector(idx), idx, qa, qb)
}

func TestAllocFree(t *testing.T) {
	_, a, _ := twoDevices(t)
	if a.FreeCommCount("ab") != 2 {
		t.Fatalf("free count = %d", a.FreeCommCount("ab"))
	}
	q1, ok := a.AllocComm("ab")
	if !ok || q1.free {
		t.Fatal("alloc failed")
	}
	q2, ok := a.AllocComm("ab")
	if !ok {
		t.Fatal("second alloc failed")
	}
	if _, ok := a.AllocComm("ab"); ok {
		t.Fatal("third alloc should fail")
	}
	freed := 0
	a.OnFree(func() { freed++ })
	a.Free(q1)
	a.Free(q2)
	if freed != 2 {
		t.Errorf("free notifications = %d", freed)
	}
	if a.FreeCommCount("ab") != 2 {
		t.Errorf("free count after Free = %d", a.FreeCommCount("ab"))
	}
}

func TestAllocLinkDedication(t *testing.T) {
	s := sim.New(1)
	d := New(s, "n", hardware.Simulation())
	d.AddCommQubits("l1", 1)
	d.AddCommQubits("", 1) // shared
	q, ok := d.AllocComm("l1")
	if !ok || q.link != "l1" {
		t.Fatal("dedicated qubit not preferred")
	}
	q2, ok := d.AllocComm("l2")
	if !ok || q2.link != "" {
		t.Fatal("shared qubit not used for other link")
	}
	if _, ok := d.AllocComm("l1"); ok {
		t.Fatal("no qubits left for l1")
	}
}

func TestStorageAlloc(t *testing.T) {
	s := sim.New(1)
	d := New(s, "n", hardware.NearTerm())
	d.AddStorageQubits(1)
	q, ok := d.AllocStorage()
	if !ok || q.Kind() != Storage {
		t.Fatal("storage alloc failed")
	}
	if _, ok := d.AllocStorage(); ok {
		t.Fatal("storage over-allocated")
	}
	if q.lifetimes.T2 != 60 {
		t.Errorf("carbon lifetimes not applied: %+v", q.lifetimes)
	}
}

func TestPairLazyDecoherence(t *testing.T) {
	s, a, b := twoDevices(t)
	p := makePair(t, s, a, b, quantum.PhiPlus)
	if f := p.FidelityAt(s.Now()); math.Abs(f-1) > 1e-9 {
		t.Fatalf("fresh pair fidelity %v", f)
	}
	// After 30 s with T2*=60 s on both sides, fidelity drops noticeably but
	// the pair is still usable.
	s.RunFor(30 * sim.Second)
	f := p.FidelityAt(s.Now())
	if f >= 0.95 || f <= 0.5 {
		t.Errorf("fidelity after 30s idle = %v", f)
	}
	// FidelityAt must not mutate: asking twice gives the same answer.
	if f2 := p.FidelityAt(s.Now()); math.Abs(f-f2) > 1e-12 {
		t.Error("FidelityAt mutated the pair")
	}
	// AdvanceTo then zero elapsed: same fidelity.
	p.AdvanceTo(s.Now())
	if f3 := p.FidelityAt(s.Now()); math.Abs(f-f3) > 1e-12 {
		t.Errorf("AdvanceTo changed fidelity: %v vs %v", f, f3)
	}
}

func TestSwapMergesPairs(t *testing.T) {
	s := sim.New(2)
	a := New(s, "a", hardware.Simulation())
	m := New(s, "m", hardware.Simulation())
	c := New(s, "c", hardware.Simulation())
	a.AddCommQubits("am", 1)
	m.AddCommQubits("am", 1)
	m.AddCommQubits("mc", 1)
	c.AddCommQubits("mc", 1)

	qa, _ := a.AllocComm("am")
	qm1, _ := m.AllocComm("am")
	p1 := NewPair(s.Now(), quantum.BellProjector(quantum.PsiPlus), quantum.PsiPlus, qa, qm1)
	qm2, _ := m.AllocComm("mc")
	qc, _ := c.AllocComm("mc")
	p2 := NewPair(s.Now(), quantum.BellProjector(quantum.PhiMinus), quantum.PhiMinus, qm2, qc)

	var merged *Pair
	var outcome quantum.BellIndex
	m.Swap(p1.Half(p1.LocalSide("m")), p2.Half(p2.LocalSide("m")), func(mp *Pair, o quantum.BellIndex) { merged, outcome = mp, o })
	drain(s)

	if merged == nil {
		t.Fatal("swap never completed")
	}
	want := quantum.Combine(quantum.PsiPlus, quantum.PhiMinus, outcome)
	if merged.TrueIdx() != want {
		t.Errorf("merged TrueIdx = %v, want %v", merged.TrueIdx(), want)
	}
	// The merged pair spans a-c and the middle qubits are free again.
	if merged.LocalSide("a") != 0 || merged.LocalSide("c") != 1 {
		t.Error("merged pair endpoints wrong")
	}
	if m.FreeCommCount("am") != 1 || m.FreeCommCount("mc") != 1 {
		t.Error("middle qubits not freed after swap")
	}
	// Fidelity close to 1 (only 500µs of gate time and slight gate noise).
	if f := merged.FidelityAt(s.Now()); f < 0.95 {
		t.Errorf("merged fidelity = %v", f)
	}
	// Qubit rewiring: a's qubit now belongs to the merged pair.
	if qa.Pair() != merged || qc.Pair() != merged {
		t.Error("remote qubits not rewired to merged pair")
	}
	// The swap took the device's SwapDuration.
	if s.Now() != sim.Time(hardware.Simulation().SwapDuration()) {
		t.Errorf("swap completed at %v", s.Now())
	}
}

func TestSwapOrientation(t *testing.T) {
	// Build pairs whose local halves sit on "wrong" sides and check the
	// merged endpoints still come out as (remote1, remote2).
	s := sim.New(3)
	a := New(s, "a", hardware.Simulation())
	m := New(s, "m", hardware.Simulation())
	c := New(s, "c", hardware.Simulation())
	a.AddCommQubits("", 1)
	m.AddCommQubits("", 2)
	c.AddCommQubits("", 1)

	qm1, _ := m.AllocComm("")
	qa, _ := a.AllocComm("")
	// Local half of p1 is side 0 (left).
	p1 := NewPair(s.Now(), quantum.BellProjector(quantum.PhiPlus), quantum.PhiPlus, qm1, qa)
	qc, _ := c.AllocComm("")
	qm2, _ := m.AllocComm("")
	// Local half of p2 is side 1 (right).
	p2 := NewPair(s.Now(), quantum.BellProjector(quantum.PhiPlus), quantum.PhiPlus, qc, qm2)

	var merged *Pair
	var outcome quantum.BellIndex
	m.Swap(p1.Half(p1.LocalSide("m")), p2.Half(p2.LocalSide("m")), func(mp *Pair, o quantum.BellIndex) { merged, outcome = mp, o })
	drain(s)
	if merged.LocalSide("a") < 0 || merged.LocalSide("c") < 0 {
		t.Fatal("merged pair lost an endpoint")
	}
	want := quantum.Combine(quantum.PhiPlus, quantum.PhiPlus, outcome)
	if f := quantum.Fidelity(merged.StateAt(s.Now()), want); f < 0.95 {
		t.Errorf("orientation-corrected swap fidelity = %v (idx %v)", f, want)
	}
}

func TestTaskSchedulerSerialises(t *testing.T) {
	s := sim.New(4)
	d := New(s, "d", hardware.Simulation())
	var done []sim.Time
	d.SubmitOp(100, func() { done = append(done, s.Now()) })
	d.SubmitOp(50, func() { done = append(done, s.Now()) })
	drain(s)
	if len(done) != 2 || done[0] != 100 || done[1] != 150 {
		t.Errorf("op completion times = %v, want [100 150]", done)
	}
	if d.BusyUntil() != 150 {
		t.Errorf("BusyUntil = %v", d.BusyUntil())
	}
}

func TestDiscardBreaksPair(t *testing.T) {
	s, a, b := twoDevices(t)
	p := makePair(t, s, a, b, quantum.PhiPlus)
	a.Discard(p)
	if p.Half(0) != nil {
		t.Error("discarded half still held")
	}
	if a.FreeCommCount("ab") != 2 {
		t.Error("discarding did not free the qubit")
	}
	// Remote half still allocated until b discards.
	if b.FreeCommCount("ab") != 1 {
		t.Error("remote half freed prematurely")
	}
	b.Discard(p)
	if b.FreeCommCount("ab") != 2 {
		t.Error("remote discard did not free")
	}
}

func TestMeasureHalfCollapsesAndCorrelates(t *testing.T) {
	s, a, b := twoDevices(t)
	agree := 0
	const n = 60
	for i := 0; i < n; i++ {
		p := makePair(t, s, a, b, quantum.PhiPlus)
		var bitA, bitB int
		a.MeasureHalf(p.Half(p.LocalSide("a")), quantum.ZBasis, func(bit int) {
			bitA = bit
			b.MeasureHalf(p.Half(p.LocalSide("b")), quantum.ZBasis, func(bit int) { bitB = bit })
		})
		drain(s)
		if bitA == bitB {
			agree++
		}
	}
	// Readout fidelity 0.998 ⇒ nearly always correlated.
	if agree < n-5 {
		t.Errorf("Z-basis agreement %d/%d for Φ+", agree, n)
	}
}

func TestMeasureFreesQubit(t *testing.T) {
	s, a, b := twoDevices(t)
	p := makePair(t, s, a, b, quantum.PhiPlus)
	a.MeasureHalf(p.Half(p.LocalSide("a")), quantum.ZBasis, func(int) {})
	drain(s)
	if a.FreeCommCount("ab") != 2 {
		t.Error("measurement did not free the qubit")
	}
	if b.FreeCommCount("ab") != 1 {
		t.Error("remote qubit should stay allocated")
	}
	// The measured half no longer decoheres but the pair still advances.
	p.AdvanceTo(s.Now())
}

func TestMoveToStorage(t *testing.T) {
	s := sim.New(5)
	nt := hardware.NearTerm()
	a := New(s, "a", nt)
	b := New(s, "b", nt)
	a.AddCommQubits("", 1)
	a.AddStorageQubits(1)
	b.AddCommQubits("", 1)
	qa, _ := a.AllocComm("")
	qb, _ := b.AllocComm("")
	p := NewPair(s.Now(), quantum.BellProjector(quantum.PhiPlus), quantum.PhiPlus, qa, qb)
	moved := false
	a.MoveToStorage(p.Half(p.LocalSide("a")), func(_ *Qubit, ok bool) { moved = ok })
	drain(s)
	if !moved {
		t.Fatal("move failed")
	}
	if a.FreeCommCount("") != 1 {
		t.Error("electron not freed after move")
	}
	half := p.Half(p.LocalSide("a"))
	if half.Kind() != Storage {
		t.Error("pair half not on storage qubit")
	}
	if half.lifetimes.T2 != 60 {
		t.Errorf("carbon lifetimes not in effect: %+v", half.lifetimes)
	}
	// Move noise costs some fidelity (carbon init 0.95, gate 0.992).
	f := p.FidelityAt(s.Now())
	if f >= 1 || f < 0.9 {
		t.Errorf("post-move fidelity = %v", f)
	}
	// Second move fails: no storage qubits left... first release it.
	a.MoveToStorage(p.Half(p.LocalSide("a")), func(_ *Qubit, ok bool) {
		if ok {
			t.Error("move with no free storage should fail")
		}
	})
	drain(s)
}

func TestAttemptDephasingHitsStoredOnly(t *testing.T) {
	s := sim.New(6)
	nt := hardware.NearTerm()
	a := New(s, "a", nt)
	b := New(s, "b", nt)
	a.AddCommQubits("", 1)
	a.AddStorageQubits(1)
	b.AddCommQubits("", 2)
	qa, _ := a.AllocComm("")
	qb, _ := b.AllocComm("")
	p := NewPair(s.Now(), quantum.BellProjector(quantum.PhiPlus), quantum.PhiPlus, qa, qb)
	a.MoveToStorage(p.Half(p.LocalSide("a")), func(*Qubit, bool) {})
	drain(s)
	f0 := p.FidelityAt(s.Now())
	// 20k attempts ≈ the 1/e budget: noticeable decay.
	a.ApplyAttemptDephasing(20000)
	f1 := p.FidelityAt(s.Now())
	if f1 >= f0 {
		t.Errorf("attempt dephasing did not degrade: %v -> %v", f0, f1)
	}
	if f1 < 0.5 {
		t.Errorf("attempt dephasing too harsh: %v", f1)
	}
	// Zero attempts: no-op.
	a.ApplyAttemptDephasing(0)
	if f2 := p.FidelityAt(s.Now()); math.Abs(f2-f1) > 1e-12 {
		t.Error("zero attempts changed state")
	}
}

func TestApplyPauliCorrection(t *testing.T) {
	s, a, b := twoDevices(t)
	p := makePair(t, s, a, b, quantum.PsiPlus)
	// Correct Ψ+ to Φ+ by applying X on the left qubit.
	p.ApplyPauli(0, 1, 0)
	if p.TrueIdx() != quantum.PhiPlus {
		t.Errorf("TrueIdx after correction = %v", p.TrueIdx())
	}
	if f := p.FidelityAt(s.Now()); math.Abs(f-1) > 1e-9 {
		t.Errorf("corrected fidelity = %v", f)
	}
}

func TestPairAccessors(t *testing.T) {
	s, a, b := twoDevices(t)
	p := makePair(t, s, a, b, quantum.PhiPlus)
	if p.LocalSide("a") != 0 || p.LocalSide("b") != 1 || p.LocalSide("zz") != -1 {
		t.Error("LocalSide wrong")
	}
	if p.RemoteNode("a") != "b" || p.RemoteNode("b") != "a" || p.RemoteNode("zz") != "" {
		t.Error("RemoteNode wrong")
	}
	if p.CreatedAt() != 0 {
		t.Error("CreatedAt wrong")
	}
	if p.Half(0).Node() != "a" {
		t.Error("Half/Node wrong")
	}
	if Communication.String() != "communication" || Storage.String() != "storage" {
		t.Error("Kind.String wrong")
	}
	if len(a.qubits) != 2 {
		t.Error("Qubits() wrong")
	}
	if a.Params().Name != "simulation" {
		t.Error("Params() wrong")
	}
}

// TestNoFusedMultiplyAdd keeps the package's arm64 assembly free of fused
// multiply-adds (see asmcheck).
func TestNoFusedMultiplyAdd(t *testing.T) { asmcheck.NoFusedMultiplyAdd(t) }
