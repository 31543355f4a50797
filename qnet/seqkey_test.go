package qnet

import (
	"testing"

	"qnp/internal/core"
	"qnp/internal/linklayer"
	"qnp/internal/netsim"
	"qnp/internal/sim"
)

// TestCorrelatorMapsHoldOneLink checks the invariant that lets the QNP key
// its per-circuit maps by Correlator.Seq alone: every correlator a node
// looks up belongs to a single link per map. A TRACK's LinkCorr is on the
// link it arrived over (each side's fates and parked maps take TRACKs from
// that side's neighbour; an end-node has one side), and an EXPIRE or test
// result that reaches an end-node carries a correlator of that end's own
// link. The run mixes Keep and Measure
// requests, test rounds and short cutoffs over a shared bottleneck, so
// every message kind and the expiry paths occur.
func TestCorrelatorMapsHoldOneLink(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Physics = PhysicsWerner
	n := Dumbbell(cfg)
	plans := map[CircuitID][]string{}
	for _, c := range []struct {
		id       CircuitID
		src, dst string
		req      Request
	}{
		{"keep", "A0", "B0", Request{ID: "k", Type: Keep, NumPairs: 1 << 20, TestEvery: 5}},
		{"measure", "A1", "B1", Request{ID: "m", Type: Measure, NumPairs: 1 << 20, TestEvery: 3}},
		{"short", "A0", "B1", Request{ID: "s", Type: Keep, NumPairs: 1 << 20}},
	} {
		vc, err := n.Establish(c.id, c.src, c.dst, 0.85, &CircuitOptions{Policy: CutoffShort})
		if err != nil {
			t.Fatal(err)
		}
		plans[c.id] = vc.Plan.Path
		vc.HandleHead(Handlers{AutoConsume: true})
		vc.HandleTail(Handlers{AutoConsume: true})
		if err := vc.Submit(c.req); err != nil {
			t.Fatal(err)
		}
	}
	ownLink := func(id CircuitID, node string) string {
		p := plans[id]
		switch node {
		case p[0]:
			return linklayer.LinkName(p[0], p[1])
		case p[len(p)-1]:
			return linklayer.LinkName(p[len(p)-2], p[len(p)-1])
		}
		return "" // intermediates only relay EXPIREs and test results
	}
	var tracks, expires, results int
	for _, id := range n.NodeIDs() {
		id := id
		n.Classical.Handle(netsim.NodeID(id), func(from netsim.NodeID, msg netsim.Message) {
			switch m := msg.(type) {
			case core.TrackMsg:
				tracks++
				if want := linklayer.LinkName(id, string(from)); m.LinkCorr.Link != want {
					t.Fatalf("TRACK %s→%s carries LinkCorr %v, not on link %s", from, id, m.LinkCorr, want)
				}
			case core.ExpireMsg:
				if own := ownLink(m.Circuit, id); own != "" {
					expires++
					if m.Origin.Link != own {
						t.Fatalf("EXPIRE at end %s carries Origin %v, not on its link %s", id, m.Origin, own)
					}
				}
			case core.TestResultMsg:
				if own := ownLink(m.Circuit, id); own != "" {
					results++
					if m.Origin.Link != own {
						t.Fatalf("test result at end %s carries Origin %v, not on its link %s", id, m.Origin, own)
					}
				}
			}
		})
	}
	n.Run(5 * sim.Second)
	if tracks == 0 || expires == 0 || results == 0 {
		t.Fatalf("run exercised %d TRACKs, %d end-node EXPIREs, %d test results; want all three", tracks, expires, results)
	}
}
