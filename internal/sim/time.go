// Package sim implements the discrete-event simulation core on which the
// whole quantum network is built. It plays the role NetSquid's simulation
// engine plays in the paper: a single global virtual clock, an event queue,
// and deterministic pseudo-randomness.
//
// The simulator is deliberately single-threaded. Quantum network protocol
// behaviour depends on precise event interleavings (a swap racing a cutoff
// timer, a TRACK message racing a qubit expiry), so every run must be exactly
// reproducible from its seed. Concurrency belongs one level up: independent
// simulation runs fan out across goroutines in the experiment harness.
//
// The event loop is allocation-free in steady state: fired and cancelled
// events are recycled through an intrusive pool, and events scheduled for
// the current instant bypass the heap through a FIFO now-queue. Scheduling
// returns a small generation-counted Event value, not a pointer into the
// pool — hold it as long as you like; Cancel on a handle whose event
// already fired is always a safe no-op. The only allocation a caller pays
// per scheduled event is its own callback closure, if any.
package sim

import "fmt"

// Time is an absolute point in simulated time, in nanoseconds since the
// start of the simulation. Nanosecond resolution covers the full dynamic
// range used by the paper: the fastest modelled operation is a 5 ns
// single-qubit gate and the longest runs are tens of simulated seconds.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring the time/Duration constants but for simulated
// time. Simulated time is kept as a distinct type so wall-clock time cannot
// be confused with virtual time anywhere in the codebase.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Add returns the time shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Scale multiplies the duration by a dimensionless factor, rounding to the
// nearest nanosecond.
func (d Duration) Scale(f float64) Duration { return Duration(float64(float64(d)*f) + 0.5) }

// DurationFromSeconds converts floating-point seconds to a Duration.
func DurationFromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

func (t Time) String() string     { return fmt.Sprintf("%.9fs", t.Seconds()) }
func (d Duration) String() string { return fmt.Sprintf("%.9fs", d.Seconds()) }
