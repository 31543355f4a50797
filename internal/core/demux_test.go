package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// refDemux is the copy-on-write demultiplexer the stamped one replaced:
// every epoch is a fresh copy of the whole request list, kept in sets until
// the demux advances past it. The stamped demux must match it pick for pick.
type refDemux struct {
	latest uint64
	active uint64
	sets   map[uint64][]*reqState
	byID   map[RequestID]*reqState
}

func newRefDemux() *refDemux {
	return &refDemux{
		sets: map[uint64][]*reqState{0: nil},
		byID: make(map[RequestID]*reqState),
	}
}

func (d *refDemux) add(rs *reqState) uint64 {
	prev := d.sets[d.latest]
	d.latest++
	next := make([]*reqState, len(prev), len(prev)+1)
	copy(next, prev)
	next = append(next, rs)
	d.sets[d.latest] = next
	d.byID[rs.req.ID] = rs
	rs.active = true
	return d.latest
}

func (d *refDemux) remove(id RequestID) uint64 {
	rs, ok := d.byID[id]
	if !ok {
		return d.latest
	}
	rs.active = false
	prev := d.sets[d.latest]
	d.latest++
	next := make([]*reqState, 0, len(prev))
	for _, r := range prev {
		if r != rs {
			next = append(next, r)
		}
	}
	d.sets[d.latest] = next
	return d.latest
}

func (d *refDemux) jumpToLatest() { d.advance(d.latest) }

func (d *refDemux) advance(e uint64) {
	if e <= d.active || e > d.latest {
		return
	}
	for old := d.active; old < e; old++ {
		delete(d.sets, old)
	}
	d.active = e
}

func (d *refDemux) next() *reqState {
	for {
		for _, rs := range d.sets[d.active] {
			if rs.wantsMore() {
				rs.assigned++
				rs.totalAssigned++
				return rs
			}
		}
		if d.active >= d.latest {
			return nil
		}
		d.advance(d.active + 1)
	}
}

func (d *refDemux) unassign(rs *reqState) {
	if rs.assigned > rs.delivered {
		rs.assigned--
	}
}

func (d *refDemux) activeRequests() []*reqState { return d.sets[d.latest] }

// demuxReplay drives the stamped demux and the reference with the same
// operations, each on its own copy of every request; got[i] and ref[i] are
// the two copies of the i-th request added.
type demuxReplay struct {
	d        *demux
	r        *refDemux
	got, ref []*reqState
	index    map[*reqState]int
}

func newDemuxReplay() *demuxReplay {
	return &demuxReplay{d: newDemux(), r: newRefDemux(), index: map[*reqState]int{}}
}

// step decodes one operation from op and arg and applies it to both. IDs
// come from a pool of ten, eight of which are ever added, so removes hit
// live, already removed and unknown IDs, and adds reuse IDs.
func (p *demuxReplay) step(op, arg byte) (string, error) {
	id := RequestID("r" + strconv.Itoa(int(arg%10)))
	switch op % 7 {
	case 0:
		req := Request{ID: RequestID("r" + strconv.Itoa(int(arg%8))), NumPairs: int(arg/8) % 4}
		a, b := &reqState{req: req}, &reqState{req: req}
		p.index[a], p.index[b] = len(p.got), len(p.ref)
		p.got, p.ref = append(p.got, a), append(p.ref, b)
		if e, w := p.d.add(a), p.r.add(b); e != w {
			return "add " + string(req.ID), fmt.Errorf("epoch %d, reference %d", e, w)
		}
		return "add " + string(req.ID), nil
	case 1:
		if e, w := p.d.remove(id), p.r.remove(id); e != w {
			return "remove " + string(id), fmt.Errorf("epoch %d, reference %d", e, w)
		}
		return "remove " + string(id), nil
	case 2:
		p.d.jumpToLatest()
		p.r.jumpToLatest()
		return "jumpToLatest", nil
	case 3:
		// Mostly near the active epoch, where a lagging tail advances:
		// one behind (underflowing at 0), the same, or a few ahead,
		// past latest too; otherwise anywhere up to latest+2.
		e := p.r.active + uint64(arg%6) - 1
		if arg >= 128 {
			e = uint64(arg) % (p.r.latest + 3)
		}
		p.d.advance(e)
		p.r.advance(e)
		return "advance " + strconv.FormatUint(e, 10), nil
	case 4:
		g, w := p.d.next(), p.r.next()
		if p.pick(g) != p.pick(w) {
			return "next", fmt.Errorf("picked request %d, reference %d", p.pick(g), p.pick(w))
		}
		return "next", nil
	case 5:
		if len(p.got) == 0 {
			return "unassign (none)", nil
		}
		k := int(arg) % len(p.got)
		p.d.unassign(p.got[k])
		p.r.unassign(p.ref[k])
		return "unassign " + strconv.Itoa(k), nil
	default:
		// A confirmed delivery, as the end-node records one: it bounds
		// what unassign may give back.
		if len(p.got) == 0 {
			return "deliver (none)", nil
		}
		k := int(arg) % len(p.got)
		if p.ref[k].delivered < p.ref[k].assigned {
			p.got[k].delivered++
			p.ref[k].delivered++
		}
		return "deliver " + strconv.Itoa(k), nil
	}
}

// pick is the index of a picked request, -1 for none.
func (p *demuxReplay) pick(rs *reqState) int {
	if rs == nil {
		return -1
	}
	return p.index[rs]
}

// check compares the two demuxes' visible state: epochs, every live
// epoch's set, the newest set as the end-node's callers walk it, and each
// request's counters. It also holds the stamped demux to its compaction
// promise: the dead entries it keeps are fewer than half of its list.
func (p *demuxReplay) check() error {
	d, r := p.d, p.r
	if d.latest != r.latest || d.active != r.active {
		return fmt.Errorf("epochs latest %d active %d, reference %d and %d", d.latest, d.active, r.latest, r.active)
	}
	for e := d.active; e <= d.latest; e++ {
		var got []int
		for _, rs := range d.reqs {
			if rs.inEpoch(e) {
				got = append(got, p.index[rs])
			}
		}
		if err := p.sameSet(fmt.Sprintf("epoch %d", e), got, r.sets[e]); err != nil {
			return err
		}
	}
	var live []int
	for _, rs := range d.requests() {
		if rs.active {
			live = append(live, p.index[rs])
		}
	}
	if err := p.sameSet("newest set", live, r.activeRequests()); err != nil {
		return err
	}
	for i, g := range p.got {
		w := p.ref[i]
		if g.assigned != w.assigned || g.totalAssigned != w.totalAssigned || g.delivered != w.delivered || g.active != w.active {
			return fmt.Errorf("request %d: assigned %d/%d delivered %d active %v, reference %d/%d %d %v",
				i, g.assigned, g.totalAssigned, g.delivered, g.active, w.assigned, w.totalAssigned, w.delivered, w.active)
		}
	}
	dead := 0
	for _, rs := range d.reqs {
		if rs.removed != 0 && rs.removed <= d.active {
			dead++
		}
	}
	if dead != d.dead || (dead > 0 && 2*dead >= len(d.reqs)) {
		return fmt.Errorf("%d dead of %d entries, counted %d: compaction is overdue or miscounted", dead, len(d.reqs), d.dead)
	}
	return nil
}

func (p *demuxReplay) sameSet(what string, got []int, ref []*reqState) error {
	want := make([]int, len(ref))
	for i, rs := range ref {
		want[i] = p.index[rs]
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("%s holds requests %v, reference %v", what, got, want)
	}
	return nil
}

// replayDemux applies the operations that ops encodes, two bytes each,
// checking both demuxes after every one.
func replayDemux(t *testing.T, ops []byte) {
	t.Helper()
	p := newDemuxReplay()
	var done []string
	for i := 0; i+1 < len(ops); i += 2 {
		what, err := p.step(ops[i], ops[i+1])
		done = append(done, what)
		if err == nil {
			err = p.check()
		}
		if err != nil {
			if len(done) > 12 {
				done = done[len(done)-12:]
			}
			t.Fatalf("after operation %d (%s; last %q): %v", i/2, what, done, err)
		}
	}
}

// TestDemuxMatchesCopyOnWrite replays random operation sequences on the
// stamped demux and on the copy-on-write reference: adds with reused IDs,
// removes of live, removed and unknown IDs, head-style jumps, tail-style
// advances that lag, repeat or overshoot, picks, unassigns and deliveries.
// Every pick, every live epoch's set and every counter must agree.
func TestDemuxMatchesCopyOnWrite(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(50+rng.Intn(350)))
		rng.Read(ops)
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) { replayDemux(t, ops) })
	}
}

// FuzzDemuxMatchesReference explores operation sequences beyond the random
// ones; the corpus under testdata/fuzz runs in every go test.
func FuzzDemuxMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(replayDemux)
}
