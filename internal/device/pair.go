// Package device models a quantum network node's hardware resources the way
// the paper's Fig. 4 lays them out: a quantum memory of communication and
// storage qubits managed by a quantum memory management unit (QMM), and a
// quantum task scheduler that serialises local quantum operations
// (entanglement swaps, moves to storage, measurements) on the device.
//
// The package also owns Pair, the live representation of an entangled pair
// shared between two nodes — an exact two-qubit density matrix, or a single
// Werner parameter under the scalar fast-path engine (Physics) — with lazy
// decoherence: the state is advanced under each side's T1/T2 only when an
// operation touches it, so idle qubits cost nothing to simulate.
package device

import (
	"fmt"

	"qnp/internal/linalg"
	"qnp/internal/quantum"
	"qnp/internal/sim"
	"qnp/internal/werner"
)

// Kind classifies qubits the way the paper does: communication qubits can
// participate in entanglement generation; storage qubits only hold state.
type Kind int

// Qubit kinds.
const (
	Communication Kind = iota
	Storage
)

func (k Kind) String() string {
	if k == Storage {
		return "storage"
	}
	return "communication"
}

// Lifetimes mirrors hardware.Lifetimes (seconds; zero = no decay). Duplicated
// here to keep the device package independent of parameter tables.
type Lifetimes struct {
	T1, T2 float64
}

// Qubit is one physical qubit in a node's memory.
type Qubit struct {
	dev  *Device
	id   int
	kind Kind
	// link dedicates a communication qubit to one physical link (the main
	// evaluation gives each link two dedicated qubits per node); empty means
	// usable for any link.
	link string
	// lifetimes are the decoherence parameters currently governing this
	// qubit; they change when a state moves between electron and carbon.
	lifetimes Lifetimes
	pair      *Pair
	side      int
	free      bool
}

// Kind returns the qubit's kind.
func (q *Qubit) Kind() Kind { return q.kind }

// Node returns the owning device's node ID.
func (q *Qubit) Node() string { return q.dev.id }

// Pair returns the pair whose half this qubit holds, or nil.
func (q *Qubit) Pair() *Pair { return q.pair }

// Pair is a (possibly multi-hop) entangled pair whose two qubits live at two
// different nodes. The left qubit is index 0 of the state, the right qubit
// index 1. Its state lives in one of two representations, chosen by the
// owning device's Physics setting: an exact 4×4 density matrix (rho), or a
// single Werner parameter (w) under the scalar fast-path engine
// (internal/werner). Every operation below branches on the representation;
// both consume identical RNG streams, so the event timeline is engine-
// independent.
type Pair struct {
	rho *linalg.Matrix
	// ws recycles the pair's density matrices: every operation that replaces
	// rho returns the old buffer to this pool. It is the workspace of the
	// device that created the pair (all devices of one network share a
	// simulation goroutine, so any of their pools is safe to use).
	ws         *linalg.Workspace
	trueIdx    quantum.BellIndex
	halves     [2]*Qubit // a half becomes nil once measured or released
	createdAt  sim.Time
	lastUpdate sim.Time
	// consumed marks halves that no longer carry live state (measured) so
	// decoherence stops being applied to them.
	consumed [2]bool
	// scalar selects the Werner fast-path representation: the state is
	// w·|B_trueIdx><B_trueIdx| + (1−w)·I/4 and rho stays nil.
	scalar bool
	w      float64
}

// NewPair wires a fresh pair between two allocated qubits. The qubits must
// belong to different devices and be allocated (not free).
func NewPair(now sim.Time, rho *linalg.Matrix, idx quantum.BellIndex, left, right *Qubit) *Pair {
	p := &Pair{rho: rho, ws: left.dev.ws}
	wirePair(p, now, idx, left, right)
	return p
}

// NewScalarPair wires a fresh Werner fast-path pair with parameter w
// relative to Bell index idx.
func NewScalarPair(now sim.Time, w float64, idx quantum.BellIndex, left, right *Qubit) *Pair {
	p := &Pair{scalar: true, w: w, ws: left.dev.ws}
	wirePair(p, now, idx, left, right)
	return p
}

func wirePair(p *Pair, now sim.Time, idx quantum.BellIndex, left, right *Qubit) {
	if left.dev == right.dev {
		panic("device: pair halves on the same node")
	}
	if left.free || right.free {
		panic("device: pair over free qubits")
	}
	p.trueIdx, p.createdAt, p.lastUpdate = idx, now, now
	p.halves[0], p.halves[1] = left, right
	left.pair, left.side = p, 0
	right.pair, right.side = p, 1
}

// CreatedAt returns the generation time of the oldest constituent link-pair.
func (p *Pair) CreatedAt() sim.Time { return p.createdAt }

// TrueIdx is the ground-truth Bell index accumulated through swaps. The
// protocol must NOT read this (it reconstructs its own view from TRACK
// messages); it exists for verification.
//
//qnetlint:allow testonly the core, linklayer and qnet tests check delivered and reinstalled pairs against it
func (p *Pair) TrueIdx() quantum.BellIndex { return p.trueIdx }

// Half returns the qubit at side 0 (left) or 1 (right); nil once consumed.
func (p *Pair) Half(side int) *Qubit { return p.halves[side] }

// LocalSide returns which side of the pair lives at the given node, or -1.
func (p *Pair) LocalSide(node string) int {
	for s, q := range p.halves {
		if q != nil && q.dev.id == node {
			return s
		}
	}
	return -1
}

// AdvanceTo applies lazy decoherence: each live half decays under its
// current qubit's T1/T2 for the elapsed time since the last update.
func (p *Pair) AdvanceTo(now sim.Time) {
	dt := p.tick(now)
	if dt <= 0 {
		return
	}
	if p.scalar {
		p.w = p.decoheredW(dt)
		return
	}
	var ch quantum.PairChannels
	p.decohere(&ch, dt)
	ch.Apply(p.rho)
}

// tick moves the pair's clock to now and returns the idle time in seconds
// since the last update.
func (p *Pair) tick(now sim.Time) float64 {
	if now < p.lastUpdate {
		panic(fmt.Sprintf("device: pair advanced backwards: %v < %v", now, p.lastUpdate))
	}
	dt := now.Sub(p.lastUpdate).Seconds()
	p.lastUpdate = now
	return dt
}

// decohere adds each live half's decay over dt seconds to ch, the
// channels of an exact pair's touch.
func (p *Pair) decohere(ch *quantum.PairChannels, dt float64) {
	if dt <= 0 {
		return
	}
	for s, q := range p.halves {
		if q != nil && !p.consumed[s] {
			ch.Decohere(s, dt, q.lifetimes.T1, q.lifetimes.T2)
		}
	}
}

// decoheredW returns the Werner parameter after dt seconds of idling: one
// joint two-sided closed-form step (exactly the composition of the per-side
// exact channels), with dead sides contributing no decay.
func (p *Pair) decoheredW(dt float64) float64 {
	var g, pf [2]float64
	for s, q := range p.halves {
		if q == nil || p.consumed[s] {
			continue
		}
		g[s], pf[s] = quantum.DecoherenceProbabilities(dt, q.lifetimes.T1, q.lifetimes.T2)
	}
	return werner.Decohere(p.w, p.trueIdx.XBit() == 0, g[0], pf[0], g[1], pf[1])
}

// StateAt returns a copy of the pair state as it would be at time t, without
// mutating the pair. This is the simulation-only oracle used by the baseline
// protocol of §5.2 and by verification tests. Ownership of the returned
// matrix transfers to the caller (it never has to be returned to the pool).
func (p *Pair) StateAt(t sim.Time) *linalg.Matrix {
	return p.stateAtW(t)
}

// stateAtW computes the state at time t into a ws matrix the caller must
// Put back (or keep). It performs the same arithmetic as StateAt. A scalar
// pair materialises its Werner state w·|B><B| + (1−w)·I/4.
func (p *Pair) stateAtW(t sim.Time) *linalg.Matrix {
	if p.scalar {
		w := p.w
		if dt := t.Sub(p.lastUpdate).Seconds(); dt > 0 {
			w = p.decoheredW(dt)
		}
		rho := p.ws.GetRaw(4, 4)
		proj := quantum.BellProjectorCached(p.trueIdx)
		mixed := complex((1-w)/4, 0)
		for i, pv := range proj.Data {
			rho.Data[i] = complex(w, 0) * pv
			if i%5 == 0 { // diagonal of the 4×4 identity
				rho.Data[i] += mixed
			}
		}
		return rho
	}
	rho := p.ws.GetRaw(p.rho.Rows, p.rho.Cols)
	copy(rho.Data, p.rho.Data)
	var ch quantum.PairChannels
	p.decohere(&ch, t.Sub(p.lastUpdate).Seconds())
	ch.Apply(rho)
	return rho
}

// FidelityWith returns the oracle fidelity against an arbitrary declared
// Bell index — what an application would actually see given the protocol's
// (possibly wrong) tracking information.
func (p *Pair) FidelityWith(t sim.Time, idx quantum.BellIndex) float64 {
	if p.scalar {
		w := p.w
		if dt := t.Sub(p.lastUpdate).Seconds(); dt > 0 {
			w = p.decoheredW(dt)
		}
		if idx == p.trueIdx {
			return werner.Fidelity(w)
		}
		return werner.CrossFidelity(w)
	}
	rho := p.stateAtW(t)
	f := quantum.Fidelity(rho, idx)
	p.ws.Put(rho)
	return f
}

// depolarizeAt advances the pair to now, then applies single-qubit
// depolarising noise with probability prob to one side's qubit: on an
// exact pair, one pass over its state.
func (p *Pair) depolarizeAt(now sim.Time, side int, prob float64) {
	if p.scalar {
		p.AdvanceTo(now)
		p.w = werner.Depolarize1(p.w, prob)
		return
	}
	var ch quantum.PairChannels
	p.decohere(&ch, p.tick(now))
	ch.Depolarize(side, prob)
	ch.Apply(p.rho)
}

// dephaseAt advances the pair to now, then applies dephasing with
// probability prob to one side's qubit: on an exact pair, one pass over
// its state.
func (p *Pair) dephaseAt(now sim.Time, side int, prob float64) {
	if p.scalar {
		p.AdvanceTo(now)
		p.w = werner.PhaseFlip(p.w, prob)
		return
	}
	var ch quantum.PairChannels
	p.decohere(&ch, p.tick(now))
	ch.PhaseFlip(side, prob)
	ch.Apply(p.rho)
}

// ApplyPauli applies a Pauli correction to one side (used by the head-end's
// final-state correction). The declared index transformation is the
// caller's business; the true index flips accordingly. On a scalar pair the
// correction is a pure Bell-frame relabelling: w is untouched.
func (p *Pair) ApplyPauli(side int, x, z uint8) {
	if !p.scalar {
		if x == 1 {
			next := quantum.ApplyGate1W(p.ws, p.rho, quantum.X, side, 2)
			p.ws.Put(p.rho)
			p.rho = next
		}
		if z == 1 {
			next := quantum.ApplyGate1W(p.ws, p.rho, quantum.Z, side, 2)
			p.ws.Put(p.rho)
			p.rho = next
		}
	}
	p.trueIdx ^= quantum.BellIndex(x) | quantum.BellIndex(z)<<1
}

// releaseHalf detaches the qubit at side and frees it.
func (p *Pair) releaseHalf(side int) {
	q := p.halves[side]
	if q == nil {
		return
	}
	p.halves[side] = nil
	q.dev.free(q)
}

// Rho exposes the current density matrix for inspection (tests, examples).
// Scalar pairs hold no matrix and return nil; use StateAt to materialise
// their Werner state.
func (p *Pair) Rho() *linalg.Matrix { return p.rho }
