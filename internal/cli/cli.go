// Package cli holds the flag parsing that cmd/figures and cmd/qnpsim
// share, so both binaries interpret -physics identically.
package cli

import (
	"fmt"

	"qnp/qnet"
)

// ParsePhysics maps a -physics flag value to its pair-state engine.
func ParsePhysics(name string) (qnet.Physics, error) {
	switch name {
	case "exact":
		return qnet.PhysicsExact, nil
	case "werner":
		return qnet.PhysicsWerner, nil
	}
	return 0, fmt.Errorf("unknown physics engine %q (want exact or werner)", name)
}
