package baseline

import "testing"

func TestFilterAcceptsAboveThreshold(t *testing.T) {
	filt := &Filter{Threshold: 0.8}
	for _, c := range []struct {
		fid  float64
		want bool
	}{{0.9, true}, {0.8, true}, {0.6, false}, {0.79, false}, {1, true}} {
		if got := filt.AcceptFidelity(c.fid); got != c.want {
			t.Errorf("AcceptFidelity(%v) = %v, want %v", c.fid, got, c.want)
		}
	}
	if filt.Accepted != 3 || filt.Rejected != 2 {
		t.Errorf("counters = %d/%d, want 3/2", filt.Accepted, filt.Rejected)
	}
}
