package device

import (
	"fmt"
	"math"
	"math/rand"

	"qnp/internal/hardware"
	"qnp/internal/linalg"
	"qnp/internal/quantum"
	"qnp/internal/sim"
	"qnp/internal/werner"
)

// Physics selects the pair-state engine a device (and the pairs it creates)
// runs on.
type Physics int

// The two physics engines.
const (
	// PhysicsExact tracks every pair as a 4×4 density matrix through the
	// exact channel models in internal/quantum. The default.
	PhysicsExact Physics = iota
	// PhysicsWerner tracks a single Werner parameter per pair using the
	// closed forms in internal/werner — O(1) per operation instead of
	// O(d²) matrix algebra, at the cost of re-twirling the state to Werner
	// form after each step. RNG draw order matches the exact engine, so
	// the event timeline is identical under both settings.
	PhysicsWerner
)

func (p Physics) String() string {
	if p == PhysicsWerner {
		return "werner"
	}
	return "exact"
}

// Device is one node's quantum hardware: its qubit memory (managed QMM-style
// with alloc/free), its serial operation timeline (the quantum task
// scheduler of Fig. 4 — current platforms execute one local quantum
// operation at a time), and the hardware parameter set.
type Device struct {
	id      string
	params  hardware.Params
	physics Physics
	sim     *sim.Simulation
	rng     *rand.Rand
	qubits  []*Qubit
	// freeComm counts free communication qubits per link tag ("" for the
	// shared ones), kept current by every alloc and free. A device serves a
	// handful of links, so a scan beats hashing the tag.
	freeComm []commCount
	// freeSwaps recycles Swap's operation records.
	freeSwaps *swapOp
	// swapNoise is the swap configuration with its gate noise factors
	// built, on the first exact swap.
	swapNoise *quantum.PreparedSwap
	// busyUntil is the quantum task scheduler's horizon: local operations
	// submitted while another runs queue behind it.
	busyUntil sim.Time
	onFree    []func()
	// notifying guards against re-entrant free-notification storms.
	notifying bool
	// ws pools the small matrices the device's quantum operations burn
	// through. One workspace per device is safe: all devices of a network
	// live on one simulation goroutine, and buffers may migrate freely
	// between the pools of devices in the same simulation.
	ws *linalg.Workspace
}

// New creates a device for node id with the given hardware parameters,
// running the exact density-matrix engine.
func New(s *sim.Simulation, id string, params hardware.Params) *Device {
	return NewWithPhysics(s, id, params, PhysicsExact)
}

// NewWithPhysics creates a device running the given pair-state engine.
func NewWithPhysics(s *sim.Simulation, id string, params hardware.Params, ph Physics) *Device {
	return &Device{
		id:      id,
		params:  params,
		physics: ph,
		sim:     s,
		rng:     s.Rand(),
		ws:      linalg.NewWorkspace(),
	}
}

// Physics returns the pair-state engine this device runs on.
func (d *Device) Physics() Physics { return d.physics }

// Workspace exposes the device's matrix pool so co-located layers (the link
// layer materialising fresh pair states) can share it.
func (d *Device) Workspace() *linalg.Workspace { return d.ws }

// ID returns the node ID.
func (d *Device) ID() string { return d.id }

// Params returns the hardware parameter set.
func (d *Device) Params() hardware.Params { return d.params }

// AddCommQubits adds n communication qubits dedicated to the named link
// (empty string = shared across links, as on the near-term single-electron
// platform).
func (d *Device) AddCommQubits(link string, n int) {
	for i := 0; i < n; i++ {
		d.qubits = append(d.qubits, &Qubit{
			dev:       d,
			id:        len(d.qubits),
			kind:      Communication,
			link:      link,
			lifetimes: Lifetimes(d.params.Electron),
			free:      true,
		})
	}
	*d.freeCommOf(link) += n
}

// commCount is the number of free communication qubits with one link tag.
type commCount struct {
	link string
	free int
}

// freeCommOf returns the free-qubit counter of a link tag.
func (d *Device) freeCommOf(link string) *int {
	for i := range d.freeComm {
		if d.freeComm[i].link == link {
			return &d.freeComm[i].free
		}
	}
	d.freeComm = append(d.freeComm, commCount{link: link})
	return &d.freeComm[len(d.freeComm)-1].free
}

// AddStorageQubits adds n storage (carbon) qubits.
func (d *Device) AddStorageQubits(n int) {
	for i := 0; i < n; i++ {
		d.qubits = append(d.qubits, &Qubit{
			dev:       d,
			id:        len(d.qubits),
			kind:      Storage,
			link:      "",
			lifetimes: Lifetimes(d.params.Carbon),
			free:      true,
		})
	}
}

// AllocComm allocates a free communication qubit usable on the given link:
// first a link-dedicated one, then a shared one.
func (d *Device) AllocComm(link string) (*Qubit, bool) {
	var shared *Qubit
	for _, q := range d.qubits {
		if !q.free || q.kind != Communication {
			continue
		}
		if q.link == link {
			d.take(q)
			return q, true
		}
		if q.link == "" && shared == nil {
			shared = q
		}
	}
	if shared != nil {
		d.take(shared)
		return shared, true
	}
	return nil, false
}

// take marks a free communication qubit allocated.
func (d *Device) take(q *Qubit) {
	q.free = false
	*d.freeCommOf(q.link)--
}

// AllocStorage allocates a free storage qubit.
func (d *Device) AllocStorage() (*Qubit, bool) {
	for _, q := range d.qubits {
		if q.free && q.kind == Storage {
			q.free = false
			return q, true
		}
	}
	return nil, false
}

// FreeCommCount reports the number of free communication qubits usable on
// the given link: those dedicated to it plus the shared ones. It sums the
// per-link counters AllocComm and free maintain instead of scanning the
// memory, so its cost does not grow with the qubit count — the link layer
// asks on every dispatch, and every qubit free re-runs dispatch on each
// engine at the device.
func (d *Device) FreeCommCount(link string) int {
	n := 0
	for _, c := range d.freeComm {
		if c.link == link || c.link == "" {
			n += c.free
		}
	}
	return n
}

// free returns a qubit to the pool and fires free-notifications. It resets
// the qubit's lifetimes to its native kind (a carbon that held a moved state
// stays carbon; an electron stays electron).
func (d *Device) free(q *Qubit) {
	if q.free {
		return
	}
	q.free = true
	q.pair = nil
	if q.kind == Communication {
		*d.freeCommOf(q.link)++
		q.lifetimes = Lifetimes(d.params.Electron)
	} else {
		q.lifetimes = Lifetimes(d.params.Carbon)
	}
	d.notifyFree()
}

func (d *Device) notifyFree() {
	if d.notifying {
		return
	}
	d.notifying = true
	for _, fn := range d.onFree {
		fn()
	}
	d.notifying = false
}

// Free releases an allocated qubit that holds no pair (or discards the
// pair's local half if it does).
func (d *Device) Free(q *Qubit) {
	if q.pair != nil {
		d.Discard(q.pair)
		return
	}
	d.free(q)
}

// OnFree registers a callback invoked whenever a qubit becomes free — the
// link layer uses it to resume blocked generation.
func (d *Device) OnFree(fn func()) { d.onFree = append(d.onFree, fn) }

// Discard releases this node's half of a pair (cutoff expiry or protocol
// discard). The remote half is untouched — the remote node discards on its
// own timer or on an EXPIRE message, exactly the window the paper's end-node
// rule exists to close.
func (d *Device) Discard(p *Pair) {
	s := p.LocalSide(d.id)
	if s < 0 {
		return
	}
	p.releaseHalf(s)
}

// SubmitOp enqueues a local quantum operation of the given duration on the
// task scheduler; fn runs at its completion time. The returned time is when
// the operation completes.
func (d *Device) SubmitOp(dur sim.Duration, fn func()) sim.Time {
	start := d.sim.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	end := start.Add(dur)
	d.busyUntil = end
	d.sim.ScheduleAt(end, fn)
	return end
}

// BusyUntil reports the task scheduler's current horizon.
func (d *Device) BusyUntil() sim.Time { return d.busyUntil }

// Swap schedules an entanglement swap between the pairs whose local halves
// live on qubits q1 and q2. The pairs are resolved from the qubits at
// *completion* time: a concurrent swap at a neighbouring node may merge a
// shared pair mid-flight, rewiring the qubit to the merged pair — the
// physical qubit, not the pair object, is the stable identity. At completion
// the two local qubits are freed, the remote qubits are rewired into the
// merged pair, and done receives the merged pair plus the announced two-bit
// outcome.
func (d *Device) Swap(q1, q2 *Qubit, done func(merged *Pair, outcome quantum.BellIndex)) {
	if q1.pair == nil || q2.pair == nil {
		panic(fmt.Sprintf("device %s: swap on qubits without pairs", d.id))
	}
	op := d.freeSwaps
	if op == nil {
		op = &swapOp{d: d}
		op.run = op.exec
	} else {
		d.freeSwaps = op.next
	}
	op.q1, op.q2, op.done = q1, q2, done
	d.SubmitOp(d.params.SwapDuration(), op.run)
}

// swapOp is a pending Swap. Records are recycled per device and bind their
// completion once, so submitting a swap allocates nothing.
type swapOp struct {
	d      *Device
	q1, q2 *Qubit
	done   func(merged *Pair, outcome quantum.BellIndex)
	run    func()
	next   *swapOp
}

// exec releases the record before swapping: done may submit the next swap.
func (op *swapOp) exec() {
	d, q1, q2, done := op.d, op.q1, op.q2, op.done
	op.q1, op.q2, op.done = nil, nil, nil
	op.next = d.freeSwaps
	d.freeSwaps = op
	d.swap(q1, q2, done)
}

// swap performs a Swap at its completion time.
func (d *Device) swap(q1, q2 *Qubit, done func(merged *Pair, outcome quantum.BellIndex)) {
	now := d.sim.Now()
	p1, p2 := q1.pair, q2.pair
	s1, s2 := p1.LocalSide(d.id), p2.LocalSide(d.id)
	if s1 < 0 || s2 < 0 {
		panic(fmt.Sprintf("device %s: swap halves vanished mid-flight", d.id))
	}
	p1.AdvanceTo(now)
	p2.AdvanceTo(now)
	if p1.scalar != p2.scalar {
		panic(fmt.Sprintf("device %s: swap across physics engines", d.id))
	}
	var (
		mergedRho *linalg.Matrix
		mergedW   float64
		outcome   quantum.BellIndex
	)
	if p1.scalar {
		// Werner states are symmetric under qubit exchange, so no
		// orientation is needed; the closed form consumes the same four
		// RNG draws as the exact Bell measurement below.
		sres := werner.Swap(p1.w, p2.w, d.params.SwapConfig(), d.rng)
		mergedW, outcome = sres.W, sres.Outcome
	} else {
		// Orient so the swap circuit sees (remote1, local1) ⊗ (local2,
		// remote2). Exchanging the qubits of a Bell-diagnosable state keeps
		// its Bell index (|Ψ−> only changes global phase).
		rho1 := p1.rho
		if s1 == 0 {
			rho1 = quantum.ApplyGate2W(d.ws, rho1, quantum.SWAP, 0, 2)
		}
		rho2 := p2.rho
		if s2 == 1 {
			rho2 = quantum.ApplyGate2W(d.ws, rho2, quantum.SWAP, 0, 2)
		}
		if d.swapNoise == nil {
			d.swapNoise = quantum.PrepareSwap(d.params.SwapConfig())
		}
		res := d.swapNoise.SwapW(d.ws, rho1, rho2, d.rng)
		if rho1 != p1.rho {
			d.ws.Put(rho1)
		}
		if rho2 != p2.rho {
			d.ws.Put(rho2)
		}
		// The Bell measurement consumed both input pairs: recycle their
		// states and nil the fields so a stale read fails fast instead of
		// observing a recycled buffer.
		d.ws.Put(p1.rho)
		p1.rho = nil
		d.ws.Put(p2.rho)
		p2.rho = nil
		mergedRho, outcome = res.Rho, res.Outcome
	}

	remote1 := p1.halves[1-s1]
	remote2 := p2.halves[1-s2]
	created := p1.createdAt
	if p2.createdAt < created {
		created = p2.createdAt
	}
	merged := &Pair{
		rho:        mergedRho,
		scalar:     p1.scalar,
		w:          mergedW,
		ws:         d.ws,
		trueIdx:    quantum.Combine(p1.trueIdx, p2.trueIdx, outcome),
		createdAt:  created,
		lastUpdate: now,
	}
	merged.consumed[0] = p1.consumed[1-s1]
	merged.consumed[1] = p2.consumed[1-s2]
	merged.halves[0] = remote1
	merged.halves[1] = remote2
	if remote1 != nil {
		remote1.pair, remote1.side = merged, 0
	}
	if remote2 != nil {
		remote2.pair, remote2.side = merged, 1
	}
	// Free this node's qubits: the Bell measurement consumed them.
	p1.releaseHalf(s1)
	p2.releaseHalf(s2)
	done(merged, outcome)
}

// MoveToStorage transfers the pair half held by communication qubit q into a
// storage qubit (the near-term platform's mandatory step before the electron
// can generate on another link). The transfer costs MoveDuration and applies
// depolarising noise from the two-qubit gate and carbon initialisation. done
// receives the storage qubit now holding the half, or ok=false if no storage
// qubit is free, or if the half was released before the move completed.
// The pair is resolved from the qubit at completion, surviving concurrent
// remote merges.
func (d *Device) MoveToStorage(q *Qubit, done func(newQ *Qubit, ok bool)) {
	if q.pair == nil {
		panic(fmt.Sprintf("device %s: move on qubit without pair", d.id))
	}
	storage, ok := d.AllocStorage()
	if !ok {
		done(nil, false)
		return
	}
	d.SubmitOp(d.params.MoveDuration(), func() {
		now := d.sim.Now()
		// The half is gone if the qubit was freed mid-move (cutoff expiry
		// or circuit teardown).
		p := q.pair
		s := -1
		if p != nil {
			s = p.LocalSide(d.id)
		}
		if s < 0 {
			d.free(storage)
			done(nil, false)
			return
		}
		pNoise := 1 - d.params.Gates.TwoQubitFidelity*d.params.Gates.CarbonInitFidelity
		p.depolarizeAt(now, s, pNoise)
		old := p.halves[s]
		storage.pair, storage.side = p, s
		p.halves[s] = storage
		old.pair = nil
		d.free(old)
		done(storage, true)
	})
}

// MeasureHalf measures the pair half held by qubit q in the given basis
// after the readout duration, frees the qubit, and hands the reported bit to
// done. The remote half retains the (collapsed) conditional state — this is
// what makes the paper's "early delivery" MEASURE mode physically sound: the
// effect propagates through later swaps. The pair is resolved from the qubit
// at completion time.
func (d *Device) MeasureHalf(q *Qubit, basis quantum.Basis, done func(bit int)) {
	if q.pair == nil {
		panic(fmt.Sprintf("device %s: measure on qubit without pair", d.id))
	}
	d.SubmitOp(d.params.Gates.ReadoutTime, func() {
		now := d.sim.Now()
		p := q.pair
		s := p.LocalSide(d.id)
		if s < 0 {
			panic(fmt.Sprintf("device %s: measured half vanished mid-flight", d.id))
		}
		p.AdvanceTo(now)
		var bit int
		if p.scalar {
			// The Werner marginal is I/2 in every basis: the scalar engine
			// draws the same truth coin and readout flip as the exact
			// measurement. The surviving half keeps the maximally mixed
			// conditional state (w = 0) — the Werner twirl of the collapsed
			// remote qubit.
			bit = werner.Measure(d.params.Gates.Readout, d.rng)
			p.w = 0
		} else {
			var post *linalg.Matrix
			bit, post = quantum.MeasureInBasisW(d.ws, p.rho, s, 2, basis, d.params.Gates.Readout, d.rng)
			d.ws.Put(p.rho)
			p.rho = post
		}
		p.consumed[s] = true
		p.releaseHalf(s)
		done(bit)
	})
}

// ApplyAttemptDephasing models the nuclear-spin dephasing of stored carbon
// qubits caused by k entanglement generation attempts on this node's
// electron (§5.3 / Kalb et al.). Each stored pair half takes a phase-flip
// channel with the k-attempt accumulated probability.
func (d *Device) ApplyAttemptDephasing(k int) {
	per := d.params.AttemptDephasingProb
	if per <= 0 || k <= 0 {
		return
	}
	var pk float64
	found := false
	for _, q := range d.qubits {
		if q.free || q.kind != Storage || q.pair == nil {
			continue
		}
		if !found {
			// k compositions of a phase flip with probability per:
			// p_k = (1 − (1−2·per)^k)/2.
			pk, found = (1-math.Pow(1-2*per, float64(k)))/2, true
		}
		q.pair.dephaseAt(d.sim.Now(), q.side, pk)
	}
}

// Allocated returns the qubits in use, in memory order.
//
//qnetlint:allow testonly qnet's teardown and churn tests check that no qubit outlives its circuit
func (d *Device) Allocated() []*Qubit {
	var in []*Qubit
	for _, q := range d.qubits {
		if !q.free {
			in = append(in, q)
		}
	}
	return in
}
