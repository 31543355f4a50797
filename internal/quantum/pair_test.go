package quantum

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qnp/internal/linalg"
)

// pairChannel is the single-qubit channel a pair touch applies after the
// idle decoherence.
type pairChannel int

const (
	noChannel pairChannel = iota
	depolarizeChannel
	phaseFlipChannel
)

// pairTouch is one touch of a pair: each live side decoheres for dt under
// its (T1, T2*), then the channel acts on side with probability p.
type pairTouch struct {
	dt      float64
	t1, t2  [2]float64
	live    [2]bool
	channel pairChannel
	side    int
	p       float64
}

func (c pairTouch) String() string {
	return fmt.Sprintf("dt=%v T1=%v T2*=%v live=%v channel=%d side=%d p=%v", c.dt, c.t1, c.t2, c.live, c.channel, c.side, c.p)
}

// pairChannels applies c through PairChannels to a copy of rho.
func pairChannels(rho *linalg.Matrix, c pairTouch) *linalg.Matrix {
	out := linalg.New(4, 4)
	copy(out.Data, rho.Data)
	var pc PairChannels
	for s := 0; s < 2; s++ {
		if c.live[s] {
			pc.Decohere(s, c.dt, c.t1[s], c.t2[s])
		}
	}
	switch c.channel {
	case depolarizeChannel:
		pc.Depolarize(c.side, c.p)
	case phaseFlipChannel:
		pc.PhaseFlip(c.side, c.p)
	}
	pc.Apply(out)
	return out
}

// refPairChannels is the chain PairChannels must equal bit for bit: each
// live side's decoherence as refDecohereW's two Kraus passes, then the
// channel's Kraus factors through the block kernel, every stage into a
// fresh ws matrix. It is the arithmetic of a pair touch before the one-pass
// form: AdvanceTo's DecohereW per side, then ApplyDepolarizing1W or the
// phase flip, each of which equals its Kraus pass.
func refPairChannels(ws *linalg.Workspace, rho *linalg.Matrix, c pairTouch) *linalg.Matrix {
	out := ws.GetRaw(4, 4)
	copy(out.Data, rho.Data)
	for s := 0; s < 2; s++ {
		if !c.live[s] {
			continue
		}
		if next := refDecohereW(ws, out, s, 2, c.dt, c.t1[s], c.t2[s]); next != out {
			ws.Put(out)
			out = next
		}
	}
	var next *linalg.Matrix
	switch c.channel {
	case noChannel:
		return out
	case depolarizeChannel:
		var factors [4]monomial
		var ops [4]localOp
		terms := depolarizingTerms(factors[:], c.p, 1)
		for t := range terms {
			ops[t] = terms[t].localOp()
		}
		next = applyOpsW(ws, out, 1, c.side, 2, ops[:len(terms)]...)
	case phaseFlipChannel:
		p := clamp01(c.p)
		s0 := complex(math.Sqrt(1-p), 0)
		next = applyOpsW(ws, out, 1, c.side, 2,
			op2(s0, 0, 0, s0),
			op2(complex(math.Sqrt(p), 0), 0, 0, complex(-math.Sqrt(p), 0)))
	}
	ws.Put(out)
	return next
}

// checkPairMatchesRef requires PairChannels to equal refPairChannels bit
// for bit and to leave rho's copy as its only output.
func checkPairMatchesRef(t *testing.T, name string, rho *linalg.Matrix, c pairTouch) {
	t.Helper()
	before := linalg.New(4, 4)
	copy(before.Data, rho.Data)
	got := pairChannels(rho, c)
	want := refPairChannels(nil, rho, c)
	if !sameBits(got, want) {
		t.Fatalf("%s %v: differs from the sequential reference bit for bit:\n%v\nreference:\n%v", name, c, got, want)
	}
	if !sameBits(rho, before) {
		t.Fatalf("%s: modified its input", name)
	}
}

// TestPairChannelsMatchReference pins the one-pass pair touch to the
// sequential chain over Hermitian and general random states with signed
// zeros, every live-side pattern, every channel on every side, each
// decoherence case (γ and p at 0, between and saturated) and p at 0, 1
// and between.
func TestPairChannelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	probs := []float64{0, 1, 0.5, 0.02, 1e-9}
	for trial := 0; trial < 6; trial++ {
		var rho *linalg.Matrix
		if trial%2 == 0 {
			rho = randomState(rng, 2)
		} else {
			rho = randomMatrix(rng, 2)
		}
		for _, dc := range decoherenceCases {
			other := decoherenceCases[rng.Intn(len(decoherenceCases))]
			for live := 0; live < 4; live++ {
				for ch := noChannel; ch <= phaseFlipChannel; ch++ {
					for side := 0; side < 2; side++ {
						for _, p := range probs {
							c := pairTouch{
								dt: dc[0], t1: [2]float64{dc[1], other[1]}, t2: [2]float64{dc[2], other[2]},
								live: [2]bool{live&1 != 0, live&2 != 0}, channel: ch, side: side, p: p,
							}
							checkPairMatchesRef(t, fmt.Sprintf("trial=%d", trial), rho, c)
						}
					}
				}
			}
		}
	}
}

// TestPairChannelsEmptyIsNoOp checks that a touch with nothing to apply
// reads no state, so a Werner pair's nil matrix passes through.
func TestPairChannelsEmptyIsNoOp(t *testing.T) {
	var pc PairChannels
	pc.Decohere(0, 0, 1, 1) // no idle time: no stage
	pc.Apply(nil)
}

// FuzzPairChannelsMatchReference requires PairChannels to equal
// refPairChannels bit for bit on inputs decoded by decodePairInput.
func FuzzPairChannelsMatchReference(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rho, c := decodePairInput(data)
		checkPairMatchesRef(t, "fuzz", rho, c)
	})
}

// decodePairInput reads the channel data[0]%3 (none, depolarising, phase
// flip) on side data[0]/3%2, the live sides as the low two bits of
// data[1], then the idle time and (T1, T2*) of each side as big-endian
// float64s, then p as a big-endian uint16 scaled to [0, 1] (65000 and
// above read as 1), then the 4×4 input as 32 big-endian float64
// components (real, imaginary; row-major). Missing bytes read as 0. The
// times are taken as they are, as in decodeDecohereInput. Components are
// clamped to [−1, 1], keeping the sign of zero, and NaN and ±Inf read as
// 0: the stages multiply by real factors where the Kraus form multiplies
// complex ones, which agrees for finite entries only (0·Inf = NaN).
func decodePairInput(data []byte) (*linalg.Matrix, pairTouch) {
	take := func(n int) []byte {
		var w [8]byte
		data = data[copy(w[:n], data):]
		return w[:n]
	}
	num := func() float64 { return math.Float64frombits(binary.BigEndian.Uint64(take(8))) }
	comp := func() float64 {
		v := num()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Max(-1, math.Min(1, v))
	}
	var c pairTouch
	b := take(1)[0]
	c.channel, c.side = pairChannel(b%3), int(b/3%2)
	live := take(1)[0]
	c.live = [2]bool{live&1 != 0, live&2 != 0}
	c.dt = num()
	for s := 0; s < 2; s++ {
		c.t1[s], c.t2[s] = num(), num()
	}
	c.p = math.Min(1, float64(binary.BigEndian.Uint16(take(2)))/65000)
	rho := linalg.New(4, 4)
	for e := range rho.Data {
		re := comp()
		rho.Data[e] = complex(re, comp())
	}
	return rho, c
}

// BenchmarkPairChannels times the one-pass pair touch of a carbon move
// (both sides' decoherence, then depolarising noise on one side) against
// the sequential reference, both on a warm workspace.
func BenchmarkPairChannels(b *testing.B) {
	rho := WernerFor(0.9, PhiPlus)
	c := pairTouch{dt: 0.01, t1: [2]float64{1, 10}, t2: [2]float64{0.5, 1}, live: [2]bool{true, true},
		channel: depolarizeChannel, p: 0.02}
	b.Run("kernel", func(b *testing.B) {
		state := linalg.New(4, 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(state.Data, rho.Data)
			var pc PairChannels
			pc.Decohere(0, c.dt, c.t1[0], c.t2[0])
			pc.Decohere(1, c.dt, c.t1[1], c.t2[1])
			pc.Depolarize(i&1, c.p)
			pc.Apply(state)
		}
	})
	b.Run("reference", func(b *testing.B) {
		ws := linalg.NewWorkspace()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.side = i & 1
			ws.Put(refPairChannels(ws, rho, c))
		}
	})
}
