package linalg

// Workspace is a size-bucketed pool of matrices for the simulation hot path.
// The quantum engine composes thousands of short-lived 2×2…16×16 matrices per
// entanglement swap; a Workspace lets those ops run allocation-free in steady
// state by recycling both the Matrix headers and their backing buffers.
//
// Ownership rules (the contract every workspace-threaded function follows):
//
//   - Get returns a zeroed matrix owned by the caller. The caller either
//     Puts it back when done, or transfers ownership (e.g. a matrix that
//     becomes a pair's long-lived density matrix is kept and only returned
//     to the pool when it is replaced or the pair's last half is released).
//   - Put hands a matrix back to the pool. After Put the caller must not
//     touch the matrix again: the next Get may hand the same buffer to
//     someone else. Matrices that were never obtained from a Workspace may
//     also be Put (their buffers simply join the pool).
//   - A Workspace is NOT safe for concurrent use. The simulation's pool is
//     one per simulation (sim.Simulation.Workspace): every device, pair and
//     link of a network shares it, so a matrix taken at one node may come
//     back at another. Parallel replicas each own their simulation, and
//     with it their pool.
//   - A nil *Workspace degrades gracefully: Get allocates fresh matrices and
//     Put is a no-op. Allocating wrapper APIs use this to share one code
//     path with the pooled ones.
//
// Buckets cover the capacities the quantum engine uses: 4 (2×2, 4×1),
// 16 (4×4), 64 (8×8) and 256 (16×16) complex128s. Larger shapes are not
// pooled; Get falls back to a fresh allocation and Put drops them.
type Workspace struct {
	buckets [numBuckets][]*Matrix
	// misses counts Gets served by allocation instead of the pool; a
	// diagnostic for tests and tuning.
	misses uint64
}

const numBuckets = 4

// maxPerBucket bounds pool growth; beyond it Put drops the matrix. Steady
// simulation state needs far fewer matrices than this in flight at once.
const maxPerBucket = 256

var bucketCaps = [numBuckets]int{4, 16, 64, 256}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// bucketForSize returns the smallest bucket whose capacity fits n elements,
// or -1 when n exceeds every bucket.
func bucketForSize(n int) int {
	for i, c := range bucketCaps {
		if n <= c {
			return i
		}
	}
	return -1
}

// bucketForCap returns the largest bucket whose capacity is at most c, or -1
// when c is below the smallest bucket.
func bucketForCap(c int) int {
	b := -1
	for i, bc := range bucketCaps {
		if bc <= c {
			b = i
		}
	}
	return b
}

// Get returns a zeroed rows×cols matrix, recycling a pooled one when
// available. On a nil workspace it simply allocates.
func (w *Workspace) Get(rows, cols int) *Matrix {
	m := w.GetRaw(rows, cols)
	m.Zero()
	return m
}

// GetRaw is Get without the zero-fill: the returned matrix holds whatever
// the buffer's previous user left behind. Use it ONLY for destinations the
// very next operation fully overwrites — every Into op qualifies (each one
// either zeroes its dst first or writes every element). Destinations that
// are read before being fully written (accumulators, a matrix with one
// entry set and then read whole) must use Get.
func (w *Workspace) GetRaw(rows, cols int) *Matrix {
	if w == nil {
		return New(rows, cols)
	}
	n := rows * cols
	if b := bucketForSize(n); b >= 0 {
		if l := len(w.buckets[b]); l > 0 {
			m := w.buckets[b][l-1]
			w.buckets[b][l-1] = nil
			w.buckets[b] = w.buckets[b][:l-1]
			m.Rows, m.Cols = rows, cols
			m.Data = m.Data[:n]
			return m
		}
		w.misses++
		// Allocate at full bucket capacity so the buffer can serve any
		// shape in its class when it comes back. make() zero-fills, which
		// also covers GetRaw's first use of a fresh buffer.
		m := &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, n, bucketCaps[b])}
		return m
	}
	w.misses++
	return New(rows, cols)
}

// Put returns a matrix to the pool. Put(nil) is a no-op, as is Put on a nil
// workspace. The caller must not use m afterwards.
func (w *Workspace) Put(m *Matrix) {
	if w == nil || m == nil {
		return
	}
	c := cap(m.Data)
	if c > bucketCaps[numBuckets-1] {
		return // oversize buffers are not pooled
	}
	b := bucketForCap(c)
	if b < 0 || len(w.buckets[b]) >= maxPerBucket {
		return
	}
	w.buckets[b] = append(w.buckets[b], m)
}

// Misses reports how many Gets could not be served from the pool (they
// allocated instead). Steady-state hot paths should stop missing once warm.
//
//qnetlint:allow testonly quantum's TestWEntryPointsNilVsPoisonedWorkspace and qnet's TestWorkspaceAccounting check that a warm pool is not missed
func (w *Workspace) Misses() uint64 {
	if w == nil {
		return 0
	}
	return w.misses
}
