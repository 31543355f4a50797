package cli

import (
	"testing"

	"qnp/qnet"
)

func TestParsePhysics(t *testing.T) {
	for name, want := range map[string]qnet.Physics{"exact": qnet.PhysicsExact, "werner": qnet.PhysicsWerner} {
		if got, err := ParsePhysics(name); err != nil || got != want {
			t.Errorf("ParsePhysics(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePhysics("bogus"); err == nil || err.Error() != `unknown physics engine "bogus" (want exact or werner)` {
		t.Errorf("ParsePhysics(bogus) error = %v", err)
	}
}
