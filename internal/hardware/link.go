package hardware

import (
	"math"
	"math/rand"

	"qnp/internal/linalg"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

// SpeedOfLightFibre is the signal velocity in standard telecom fibre, m/s.
const SpeedOfLightFibre = 2.0e8

// LinkConfig describes the physical channel between two neighbouring nodes:
// the fibre and the heralding geometry. The heralding station sits at the
// fibre midpoint (single-click scheme): each node emits a photon entangled
// with its spin, the photons interfere at the midpoint, and a single detector
// click heralds a spin-spin entangled pair.
type LinkConfig struct {
	// LengthM is the node-to-node fibre length in metres.
	LengthM float64
	// LossDBPerKm is the fibre attenuation. The paper uses 5 dB/km for the
	// lab (2 m, no frequency conversion) and 0.5 dB/km for telecom
	// wavelength (25 km, near-term scenario).
	LossDBPerKm float64
	// CycleOverhead is the per-attempt overhead beyond photon emission and
	// travel: phase stabilisation, spin pumping/reset. It calibrates the
	// attempt rate; see DESIGN.md (Fig. 5 calibration).
	CycleOverhead sim.Duration
}

// LabLink is the link used by the main evaluation: 2 m of fibre, no
// frequency conversion. The 10 µs cycle overhead calibrates the attempt rate
// so that a fidelity-0.95 pair takes ≈10 ms on average (paper Fig. 5).
func LabLink() LinkConfig {
	return LinkConfig{LengthM: 2, LossDBPerKm: 5, CycleOverhead: 10 * sim.Microsecond}
}

// TelecomLink is the near-term scenario's 25 km telecom-wavelength link.
func TelecomLink(lengthM float64) LinkConfig {
	return LinkConfig{LengthM: lengthM, LossDBPerKm: 0.5, CycleOverhead: 10 * sim.Microsecond}
}

// PropagationDelay is the one-way classical/photonic signal delay across the
// full link.
func (l LinkConfig) PropagationDelay() sim.Duration {
	return sim.DurationFromSeconds(l.LengthM / SpeedOfLightFibre)
}

// CycleTime is the duration of one entanglement generation attempt: electron
// initialisation, photon emission, photon travel to the midpoint and the
// heralding signal back, plus the calibration overhead.
func (l LinkConfig) CycleTime(p Params) sim.Duration {
	return p.Gates.ElectronInitTime + p.Photon.TauEmission + l.PropagationDelay() + l.CycleOverhead
}

// Transmission is the photon survival probability from node to midpoint.
func (l LinkConfig) Transmission() float64 {
	halfKm := l.LengthM / 2 / 1000
	return math.Pow(10, -l.LossDBPerKm*halfKm/10)
}

// Eta is the total per-photon detection efficiency: collection into the
// fibre, the zero-phonon-line fraction, fibre transmission to the midpoint
// and detector efficiency.
func (l LinkConfig) Eta(p Params) float64 {
	return p.Photon.CollectionEff * p.Photon.PZeroPhonon * l.Transmission() * p.Photon.PDetection
}

// darkProb is the probability of a dark-count click in the detection window
// (two detectors).
func (l LinkConfig) darkProb(p Params) float64 {
	return 2 * p.Photon.DarkCountRate * p.Photon.TauWindow.Seconds()
}

// coherence is the off-diagonal survival factor of the heralded pair:
// interferometer visibility times the Gaussian phase-noise factor
// exp(−Δφ²/2).
func (p PhotonParams) coherence() float64 {
	return p.Visibility * math.Exp(-p.DeltaPhi*p.DeltaPhi/2)
}

// PairModel describes the state produced by a heralded attempt, before any
// decoherence: the components of
//
//	ρ = wReal·[ g·ρ_Ψ(v) + (1−g)·|11><11| ] + wDark·I/4
//
// where ρ_Ψ(v) is the heralded Ψ state with coherence v, g = 1 − α − p_de
// is the fraction of heralds leaving the spins in the entangled subspace,
// and wDark is the fraction of heralds caused by dark counts.
type PairModel struct {
	Alpha       float64
	V           float64 // coherence of the Ψ component
	G           float64 // good fraction among real heralds
	WDark       float64 // dark-count herald fraction
	SuccessProb float64
}

// Model computes the produced-state model for a given α.
func (l LinkConfig) Model(p Params, alpha float64) PairModel {
	c := l.curve(p)
	return c.Model(alpha)
}

// Fidelity is the expected fidelity of the produced pair with its heralded
// Bell state: wReal·g·(1+v)/2 + wDark/4.
func (m PairModel) Fidelity() float64 {
	return (1-m.WDark)*m.G*(1+m.V)/2 + m.WDark/4
}

// identity4 is the shared read-only 4×4 identity for StateW's dark-count
// term.
var identity4 = linalg.Identity(4)

// StateW materialises the produced 4×4 density matrix for heralded Bell
// index idx (Ψ+ or Ψ−; the detector that clicks selects the sign). Scratch
// comes from ws and the returned state is a fresh ws matrix whose ownership
// transfers to the caller (it becomes the new pair's long-lived density
// matrix). A nil ws allocates instead, with bit-identical results.
func (m PairModel) StateW(ws *linalg.Workspace, idx quantum.BellIndex) *linalg.Matrix {
	// Dephased Ψ component: v·|Ψ><Ψ| + (1−v)·(|Ψ_+><Ψ_+|+|Ψ_-><Ψ_-|)/2,
	// which equals the fully dephased {|01>,|10>} mixture at v=0.
	other := idx ^ 2 // flip the phase bit: Ψ+ ↔ Ψ−
	dep := ws.GetRaw(4, 4)
	t := ws.GetRaw(4, 4)
	linalg.ScaleInto(dep, complex((1+m.V)/2, 0), quantum.BellProjectorCached(idx))
	linalg.ScaleInto(t, complex((1-m.V)/2, 0), quantum.BellProjectorCached(other))
	dep.AddInPlace(t)
	bright := ws.Get(4, 4)
	bright.Set(3, 3, 1) // |11><11|
	rho := ws.GetRaw(4, 4)
	linalg.ScaleInto(dep, complex((1-m.WDark)*m.G, 0), dep)
	linalg.ScaleInto(bright, complex((1-m.WDark)*(1-m.G), 0), bright)
	linalg.AddInto(rho, dep, bright)
	linalg.ScaleInto(t, complex(m.WDark/4, 0), identity4)
	rho.AddInPlace(t)
	ws.Put(dep)
	ws.Put(t)
	ws.Put(bright)
	return rho
}

// GenerateW samples one heralded pair of this link at α; see
// PairModel.GenerateW.
func (l LinkConfig) GenerateW(ws *linalg.Workspace, p Params, alpha float64, rng *rand.Rand) (*linalg.Matrix, quantum.BellIndex) {
	return l.Model(p, alpha).GenerateW(ws, rng)
}

// GenerateW samples one heralded pair of this model: the Bell index (Ψ+ or
// Ψ− with equal probability, chosen by which detector clicked) and the
// produced state, a ws matrix owned by the caller.
func (m PairModel) GenerateW(ws *linalg.Workspace, rng *rand.Rand) (*linalg.Matrix, quantum.BellIndex) {
	idx := quantum.PsiPlus
	if rng.Intn(2) == 1 {
		idx = quantum.PsiMinus
	}
	return m.StateW(ws, idx), idx
}

// AlphaForFidelity inverts the fidelity model: it returns the α producing
// pairs of the requested fidelity, or ok=false if the link cannot reach it
// (see LinkCurve.AlphaForFidelity). Callers inverting repeatedly should
// build one LinkCurve instead: every call here rescans for the peak.
func (l LinkConfig) AlphaForFidelity(p Params, f float64) (alpha float64, ok bool) {
	return NewLinkCurve(l, p).AlphaForFidelity(f)
}

// LinkCurve is a link's fidelity-versus-rate trade-off precomputed for one
// (LinkConfig, Params) pair: the α-independent factors of the produced-state
// model (detection efficiency η, dark-count probability, coherence, attempt
// cycle) and the peak of the fidelity curve. Those are fixed by the link
// physics, so a caller that inverts the curve many times (the routing
// controller's budget bisection, a link engine registering requests) builds
// one curve and pays the 401-point peak scan once; after that Model costs a
// few flops and AlphaForFidelity is a pure-arithmetic bisection. Every
// method is bit-identical to its LinkConfig counterpart.
type LinkCurve struct {
	eta, dark, coherence, pDouble float64
	cycle                         sim.Duration
	peakAlpha, peakF              float64
}

// curve returns the link's α-independent model factors without the peak
// scan (enough for Model and SuccessProb).
func (l LinkConfig) curve(p Params) LinkCurve {
	return LinkCurve{
		eta:       l.Eta(p),
		dark:      l.darkProb(p),
		coherence: p.Photon.coherence(),
		pDouble:   p.Photon.PDoubleExcitation,
		cycle:     l.CycleTime(p),
	}
}

// NewLinkCurve precomputes the link's fidelity curve, including its peak.
func NewLinkCurve(l LinkConfig, p Params) *LinkCurve {
	c := l.curve(p)
	// Fidelity is not monotone at the extreme low-α end (dark counts
	// dominate when almost no photons are emitted), so the peak is found by
	// scanning log-spaced α from 1e-6 to 0.5.
	c.peakF = -1
	for i := 0; i <= 400; i++ {
		a := math.Exp(math.Log(1e-6) + (math.Log(0.5)-math.Log(1e-6))*float64(i)/400)
		if f := c.Model(a).Fidelity(); f > c.peakF {
			c.peakAlpha, c.peakF = a, f
		}
	}
	return &c
}

// Model computes the produced-state model for a given α.
func (c *LinkCurve) Model(alpha float64) PairModel {
	pm := PairModel{Alpha: alpha, V: c.coherence}
	real2 := 2 * alpha * c.eta
	pm.SuccessProb = real2 + c.dark
	if pm.SuccessProb > 0 {
		pm.WDark = c.dark / pm.SuccessProb
	}
	pm.G = 1 - alpha - c.pDouble
	if pm.G < 0 {
		pm.G = 0
	}
	return pm
}

// Peak returns the largest fidelity the link can produce and the α that
// achieves it.
func (c *LinkCurve) Peak() (alpha, fid float64) { return c.peakAlpha, c.peakF }

// CycleTime is the link's attempt duration (LinkConfig.CycleTime).
func (c *LinkCurve) CycleTime() sim.Duration { return c.cycle }

// AlphaForFidelity inverts the fidelity model: it returns the α producing
// pairs of the requested fidelity (on the fast, decreasing branch above the
// dark-count peak), or ok=false if the link cannot reach it. Routing uses
// this to translate a link min-fidelity into a link-layer request.
func (c *LinkCurve) AlphaForFidelity(f float64) (alpha float64, ok bool) {
	if f > c.peakF {
		return 0, false
	}
	lo, hi := c.peakAlpha, 0.5
	if c.Model(hi).Fidelity() > f {
		return hi, true // even the fastest setting beats the request
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if c.Model(mid).Fidelity() >= f {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// ExpectedPairTime is the mean time to generate one pair at fidelity f
// (attempt cycle divided by success probability).
func (c *LinkCurve) ExpectedPairTime(f float64) (sim.Duration, bool) {
	a, ok := c.AlphaForFidelity(f)
	if !ok {
		return 0, false
	}
	return c.cycle.Scale(1 / c.Model(a).SuccessProb), true
}

// SampleAttempts draws the number of attempts until the first success from
// the geometric distribution with per-attempt probability prob. The fast
// path for the simulator: a full generation round becomes a single event
// k·CycleTime later rather than k per-attempt events.
func SampleAttempts(prob float64, rng *rand.Rand) int {
	if prob <= 0 {
		return math.MaxInt32
	}
	if prob >= 1 {
		return 1
	}
	u := rng.Float64()
	// P(K > k) = (1-p)^k ⇒ K = ceil(log(1-u)/log(1-p)).
	k := int(math.Ceil(math.Log(1-u) / math.Log(1-prob)))
	if k < 1 {
		k = 1
	}
	return k
}

// ExpectedPairTime is the mean time to generate one pair at fidelity f
// (attempt cycle divided by success probability). Routing uses it to compute
// achievable link-pair rates.
func (l LinkConfig) ExpectedPairTime(p Params, f float64) (sim.Duration, bool) {
	return NewLinkCurve(l, p).ExpectedPairTime(f)
}
