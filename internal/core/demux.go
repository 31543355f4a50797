package core

import (
	"qnp/internal/sim"
)

// reqState is an end-node's book-keeping for one request sharing a circuit.
type reqState struct {
	req Request
	// assigned counts local link-pairs currently assigned to this request
	// (in transit or delivered); discarded chains are unassigned again —
	// "if a qubit was not delivered early it can be reassigned".
	assigned int
	// totalAssigned counts assignments ever made (monotonic; never
	// decremented) — test-round designation keys off it so a re-assigned
	// slot is not re-designated forever.
	totalAssigned int
	// delivered counts confirmed deliveries at this end.
	delivered int
	active    bool
	seq       int
	// submittedAt/firstAt support deadline/window accounting.
	submittedAt sim.Time
	firstAt     sim.Time
	haveFirst   bool
	// added is the epoch whose creation added the request to its
	// circuit's demux; removed is the one whose creation took it out, 0
	// while it is in.
	added, removed uint64
}

// inEpoch reports whether the request is in epoch e's set.
func (rs *reqState) inEpoch(e uint64) bool {
	return rs.added <= e && (rs.removed == 0 || e < rs.removed)
}

func (rs *reqState) nextSeq() int {
	s := rs.seq
	rs.seq++
	return s
}

// wantsMore reports whether the request can take another pair assignment.
func (rs *reqState) wantsMore() bool {
	if !rs.active {
		return false
	}
	if rs.req.NumPairs == 0 {
		return true // rate-based, open-ended
	}
	return rs.assigned < rs.req.NumPairs
}

// demux is the symmetric demultiplexer (§4.1 "Aggregation", Appendix C
// "Demultiplexing"): it assigns a circuit's pairs to requests using the same
// deterministic rule at both end-nodes — oldest active request first — and
// relies on TRACK cross-checks to discard the occasional inconsistent
// assignment. Epochs version the active request set: a new epoch is created
// on every request arrival/completion, the head-end announces the next epoch
// on each TRACK, and the tail activates it after delivering that pair.
//
// No epoch's set is stored. Each request is stamped with the epoch that
// added it and the one that removed it, and reqs holds the requests of
// epochs active..latest in arrival order, so epoch e's set is the entries
// with added ≤ e < removed (removed = 0: not removed), and added rises
// along reqs. A new epoch therefore costs O(1), where a copied set cost
// O(requests). An entry removed at or before active is dead: no epoch that
// can still be assigned from holds it. advance drops the dead entries in one
// in-place pass once they are at least half of reqs; the pass costs
// O(len(reqs)) and frees at least len(reqs)/2 entries, each added once, so
// compaction is amortised O(1) per request.
type demux struct {
	// latest is the newest created epoch.
	latest uint64
	// active is the epoch this end currently assigns from (the head always
	// tracks latest; the tail advances on deliveries).
	active uint64
	reqs   []*reqState
	// pending holds the removal stamps later than active, ascending, so
	// advance counts the newly dead without a scan of reqs; dead counts the
	// entries of reqs removed at or before active.
	pending []uint64
	dead    int
	byID    map[RequestID]*reqState
}

func newDemux() *demux {
	return &demux{byID: make(map[RequestID]*reqState)}
}

// add creates a new epoch containing the previous set plus rs, which must
// be new to the demux.
func (d *demux) add(rs *reqState) uint64 {
	d.latest++
	rs.added, rs.removed = d.latest, 0
	rs.active = true
	d.reqs = append(d.reqs, rs)
	d.byID[rs.req.ID] = rs
	return d.latest
}

// remove creates a new epoch without rs and deactivates it. An unknown ID
// creates no epoch; an ID already removed creates one with an unchanged set.
func (d *demux) remove(id RequestID) uint64 {
	rs, ok := d.byID[id]
	if !ok {
		return d.latest
	}
	rs.active = false
	d.latest++
	if rs.removed == 0 {
		rs.removed = d.latest
		d.pending = append(d.pending, d.latest)
	}
	return d.latest
}

// get looks up a request.
func (d *demux) get(id RequestID) *reqState { return d.byID[id] }

// jumpToLatest moves assignment to the newest epoch (head-end behaviour).
func (d *demux) jumpToLatest() { d.advance(d.latest) }

// advance activates epoch e if it is newer than the current one, and
// compacts reqs once its dead entries are at least half of it.
func (d *demux) advance(e uint64) {
	if e <= d.active || e > d.latest {
		return
	}
	d.active = e
	k := 0
	for k < len(d.pending) && d.pending[k] <= e {
		k++
	}
	d.dead += k
	d.pending = d.pending[:copy(d.pending, d.pending[k:])]
	if d.dead > 0 && 2*d.dead >= len(d.reqs) {
		d.compact()
	}
}

// compact drops the dead entries of reqs in place, keeping arrival order,
// and clears the freed tail so the garbage collector can reclaim them.
func (d *demux) compact() {
	kept := d.reqs[:0]
	for _, rs := range d.reqs {
		if rs.removed == 0 || rs.removed > d.active {
			kept = append(kept, rs)
		}
	}
	clear(d.reqs[len(kept):])
	d.reqs = kept
	d.dead = 0
}

// next assigns the next pair: the oldest request in the active epoch that
// still wants pairs. If the active epoch has nothing assignable but a later
// epoch exists, the demux advances — this bootstraps the first request and
// drains dead epochs.
func (d *demux) next() *reqState {
	for {
		for _, rs := range d.reqs {
			if rs.added > d.active {
				break
			}
			if rs.inEpoch(d.active) && rs.wantsMore() {
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

// unassign returns an assignment after a discarded chain or failed
// cross-check, making the slot reusable.
func (d *demux) unassign(rs *reqState) {
	if rs.assigned > rs.delivered {
		rs.assigned--
	}
}

// requests returns the requests of epochs active..latest in arrival order.
// The newest epoch's set is exactly those with rs.active set, so a caller
// that skips the inactive ones walks that set.
func (d *demux) requests() []*reqState { return d.reqs }
