package core

import (
	"strconv"
	"testing"

	"qnp/internal/race"
)

// TestAllocsPerPairExactChain gates the protocol records on a four-node
// exact-physics chain, where each end-to-end pair takes three link pairs,
// two swaps and six TRACK hops, relayed through swap records or parked
// TRACKs. Pair slots, in-transit entries, swap operations, cutoff timers
// and deliveries are all pooled, so what is left per pair is its five Pair
// objects (three link pairs, two merges), six boxed TRACK messages and two
// workspace misses: a link pair's density matrix is taken from one device's
// pool and recycled into the pool of the device that swaps it.
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
	if per := allocs / pairs; per > 13.1 {
		t.Errorf("allocs per delivered pair = %.2f, want ≤ 13.1", per)
	} else {
		t.Logf("allocs per delivered pair = %.2f", per)
	}
}
