// Package baseline implements the comparison protocol of §5.2: "a simpler
// protocol which instead of using a cutoff in the network discards
// end-to-end pairs that are below fidelity". Knowing a pair's fidelity is
// physically impossible, so — exactly as in the paper — the baseline cheats
// with a simulation oracle: "we use the simulation to give us the fidelity.
// The QNP does not use this backdoor mechanism."
//
// The baseline therefore runs the QNP with CutoffNone and filters delivered
// pairs at the end-nodes through this oracle.
package baseline

// Filter is the oracle discard rule applied at an end-node.
type Filter struct {
	// Threshold is the end-to-end fidelity below which delivered pairs are
	// discarded.
	Threshold float64
	// Accepted and Rejected count filter decisions.
	Accepted, Rejected uint64
}

// AcceptFidelity consults the oracle: fid is the delivered pair's exact
// fidelity against its protocol-declared Bell state, recorded once at
// delivery time.
func (f *Filter) AcceptFidelity(fid float64) bool {
	if fid >= f.Threshold {
		f.Accepted++
		return true
	}
	f.Rejected++
	return false
}
