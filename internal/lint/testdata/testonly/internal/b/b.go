// Package b is production code: cmd/app imports it.
package b

import "fix/internal/a"

// Runner is what Use calls.
type Runner interface{ Run() }

// Use runs r through the interface.
//
//qnetlint:allow testonly Use has a production caller // want `keeps nothing`
func Use(r Runner) {
	r.Run()
	a.UsedByB()
}
