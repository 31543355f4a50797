// The detrand fixture claims the qnp/internal/sim import path, putting it
// inside the analyzer's simulation-package scope.
package sim

import (
	crand "crypto/rand"
	"math/rand"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time.Since reads the wall clock`
}

func globalDraw() int {
	return rand.Intn(6) // want `rand.Intn draws from the shared global source`
}

func globalFloat() float64 {
	return rand.Float64() // want `rand.Float64 draws from the shared global source`
}

func cryptoDraw(p []byte) {
	_, _ = crand.Read(p) // want `rand.Read is nondeterministic by design`
}

// Methods on an explicitly seeded stream are the sanctioned pattern: only
// the package-level draws touch the global source.
func seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6)
}

// Durations and time arithmetic on values already in hand are fine.
func later(t0 time.Time) time.Time {
	return t0.Add(3 * time.Second)
}

func allowedClock() time.Time {
	//qnetlint:allow detrand fixture exercises the escape hatch
	return time.Now()
}

// An allow over lines with nothing to flag suppresses nothing: it is stale.
func staleAllow(t0 time.Time) time.Time {
	//qnetlint:allow detrand nothing here reads the wall clock // want `stale qnetlint directive: no detrand diagnostic`
	return later(t0)
}
