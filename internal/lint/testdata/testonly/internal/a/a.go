// Package a declares the exports the testonly fixture probes. cmd/app and
// package b import it from non-test files; the user module imports it too.
package a

// Unused is called only from a_test.go.
func Unused() {} // want `a.Unused is exported but no non-test code uses it`

// Limit is read only from a_test.go.
const Limit = 3 // want `a.Limit is exported`

// UsedByB is called from package b's non-test code.
func UsedByB() {}

// UsedByUser is called only from the separate user module.
func UsedByUser() {}

// Impl satisfies b.Runner, and b calls Run through that interface.
type Impl struct{}

// Run is never called directly.
func (Impl) Run() {}

// String satisfies fmt.Stringer; fmt calls it.
func (Impl) String() string { return "impl" }

// Stop is in no interface the module calls.
func (Impl) Stop() {} // want `a.Impl.Stop is exported`

// Box is generic; the user module instantiates it.
type Box[T any] struct {
	V T
	W T // want `a.Box.W is exported`
}

// Get is called on Box[int] only.
func (b *Box[T]) Get() T { return b.V }

// Hook stays for another package's tests.
//
//qnetlint:allow testonly package b's tests read it
func Hook() int { return 1 }
