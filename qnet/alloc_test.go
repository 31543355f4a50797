package qnet

import (
	"strconv"
	"testing"

	"qnp/internal/race"
)

// TestAllocsPerDeliveredPair gates the per-pair protocol path on a Werner
// three-node chain: each end-to-end pair is two link rounds, one swap and
// four TRACK hops. What is left per pair is the three Pair objects (two
// link pairs and the merged one) and the four boxed TRACK messages; the
// rest of the bound covers link pairs that never become deliveries.
func TestAllocsPerDeliveredPair(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run with -race off")
	}
	const pairs = 2000
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.Physics = PhysicsWerner
	net := Chain(cfg, 3)
	vc, err := net.Establish("c", "n0", "n2", 0.85, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	vc.HandleHead(Handlers{AutoConsume: true, OnPair: func(Delivered) { got++ }})
	vc.HandleTail(Handlers{AutoConsume: true})
	runs := 0
	// AllocsPerRun makes one warm-up call first, so the gate measures the
	// second request, on warm pools and grown maps.
	allocs := testing.AllocsPerRun(1, func() {
		runs++
		want := got + pairs
		if err := vc.Submit(Request{ID: RequestID("r" + strconv.Itoa(runs)), Type: Keep, NumPairs: pairs}); err != nil {
			t.Fatal(err)
		}
		for got < want && net.Sim.Step() {
		}
	})
	if got != runs*pairs {
		t.Fatalf("delivered %d pairs over %d requests of %d", got, runs, pairs)
	}
	if per := allocs / pairs; per > 7.1 {
		t.Errorf("allocs per delivered pair = %.2f, want ≤ 7.1", per)
	} else {
		t.Logf("allocs per delivered pair = %.2f", per)
	}
}
