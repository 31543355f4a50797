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

// Config's fields are read by cmd/app; each is written a different way.
type Config struct {
	Keyed    int      // a composite-literal key
	Assigned int      // an assignment
	Bumped   int      // an increment
	Addr     int      // &cfg.Addr
	Count    Counter  // a pointer-receiver method call
	ReadOnly int      // want `a.Config.ReadOnly is read but only tests write it`
	Shared   *Counter // want `a.Config.Shared is read but only tests write it`
	//qnetlint:allow testonly cmd/app's tests set it
	Kept int
}

// Counter is mutated through its pointer method.
type Counter struct{ N int }

// Inc increments the counter.
func (c *Counter) Inc() { c.N++ }

// Pair is built with an unkeyed composite literal.
type Pair struct{ X, Y int }

// Wire is filled by encoding/json through a pointer handed over as an
// interface{}; so is Inner, which it reaches.
type Wire struct {
	Name  string
	Inner *Inner
}

// Inner is reached from Wire.
type Inner struct{ V int }

// Generic is decoded through a type parameter's pointer.
type Generic struct{ G int }

// Mirror is built by converting a Pair.
type Mirror struct{ X, Y int }
