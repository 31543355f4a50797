package core

import (
	"strconv"
	"testing"

	"qnp/internal/race"
)

// TestAllocsPerPairExactChain gates the protocol records on a four-node
// exact-physics chain, where each end-to-end pair takes three link pairs,
// two swaps and six TRACK hops, relayed through swap records or parked
// TRACKs. Pair slots, in-transit entries, device operations, cutoff timers,
// deliveries and density matrices (one pool per simulation, a delivered
// pair's state returned at its last release) are all recycled, so what is
// left per pair is its five Pair objects (three link pairs, two merges) and
// six boxed TRACK messages.
func TestAllocsPerPairExactChain(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	const pairs = 500
	c := buildChain(t, defaultChainConfig(4))
	got := 0
	for _, n := range []*Node{c.head(), c.tail()} {
		n := n
		n.SetHandlers("vc", Handlers{OnPair: func(d Delivered) {
			if n == c.head() {
				got++
			}
			n.dev.Free(d.Pair.Half(d.Pair.LocalSide(string(n.ID()))))
		}})
	}
	runs := 0
	allocs := testing.AllocsPerRun(1, func() {
		runs++
		want := got + pairs
		if err := c.head().Submit(Request{ID: RequestID("r" + strconv.Itoa(runs)), Circuit: "vc", Type: Keep, NumPairs: pairs}); err != nil {
			t.Fatal(err)
		}
		for got < want && c.sim.Step() {
		}
	})
	if got != runs*pairs {
		t.Fatalf("delivered %d pairs over %d requests of %d", got, runs, pairs)
	}
	if per := allocs / pairs; per > 11.1 {
		t.Errorf("allocs per delivered pair = %.2f, want ≤ 11.1", per)
	} else {
		t.Logf("allocs per delivered pair = %.2f", per)
	}
}

// TestAllocsDemuxChurn gates the demultiplexer under request churn, which
// the per-pair gates, one request at a time, never reach: with a thousand
// requests live, each retired request is replaced by a new one, the tail
// advances one epoch behind the head and a pair is assigned. An epoch
// change must allocate nothing once the request list has grown to its
// working size. The requests come from a slice made beforehand and reuse
// the thousand IDs: byID keeps an entry for every ID ever seen (it is
// Submit's duplicate check), so distinct IDs would measure map growth.
func TestAllocsDemuxChurn(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	const live, runs = 1000, 10
	ids := make([]RequestID, live)
	for i := range ids {
		ids[i] = RequestID("r" + strconv.Itoa(i))
	}
	pool := make([]reqState, live*(runs+2))
	fresh := func(i int) *reqState {
		rs := &pool[0]
		pool = pool[1:]
		rs.req = Request{ID: ids[i%live], NumPairs: 1}
		return rs
	}
	d := newDemux()
	for i := 0; i < live; i++ {
		d.add(fresh(i))
	}
	d.jumpToLatest()
	retired := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < live; i++ {
			d.remove(ids[retired%live])
			d.add(fresh(retired))
			retired++
			d.advance(d.latest - 1)
			if d.next() == nil {
				t.Fatal("no request to assign a pair to")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("allocs per %d request replacements = %v, want 0", live, allocs)
	}
	if n := len(d.reqs); n > 2*live {
		t.Errorf("request list holds %d entries for %d live requests", n, live)
	}
}
