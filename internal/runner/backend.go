package runner

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// A KindFunc executes one replica of a registered job kind: it decodes the
// job payload, runs replica `replica` with the seed derived for it, and
// returns the replica's encoded result. It must be a pure function of
// (payload, replica, seed) — that is what makes process-sharded execution
// bit-identical to in-process execution — and it must be safe for
// concurrent calls.
type KindFunc func(payload []byte, replica int, seed int64) ([]byte, error)

var (
	kindsMu sync.RWMutex
	kinds   = make(map[string]KindFunc)
)

// RegisterKind installs the executor for a job kind, keyed by a stable
// name. Packages register their kinds in init so that a re-exec'd worker
// process (which runs the same binary) holds the same table. Registering a
// duplicate name panics: kind names are a cross-process protocol and must
// be unambiguous.
func RegisterKind(kind string, fn KindFunc) {
	kindsMu.Lock()
	defer kindsMu.Unlock()
	if kind == "" || fn == nil {
		panic("runner: RegisterKind with empty kind or nil func")
	}
	if _, dup := kinds[kind]; dup {
		panic(fmt.Sprintf("runner: job kind %q registered twice", kind))
	}
	kinds[kind] = fn
}

func lookupKind(kind string) (KindFunc, error) {
	kindsMu.RLock()
	fn := kinds[kind]
	kindsMu.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("runner: unknown job kind %q (known: %v)", kind, kindNames())
	}
	return fn, nil
}

func kindNames() []string {
	kindsMu.RLock()
	defer kindsMu.RUnlock()
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ExecRequest describes one backend execution: replicas 0..Replicas-1 of a
// registered job kind, each a pure function of (Payload, replica, derived
// seed).
type ExecRequest struct {
	// Kind names the registered job kind (RegisterKind) to execute.
	Kind string
	// Payload is the kind's job description, opaque to the runner.
	Payload []byte
	// Replicas is the number of replicas to run; replica i executes with
	// DeriveSeed(Options.Seed, i) regardless of where it runs.
	Replicas int
	// Options carry the run's seed, parallelism budget, progress callback
	// and cancellation context.
	Options Options
}

// A Backend executes the replicas of a registered job kind. Execute blocks
// until the run is over and returns each replica's encoded result in
// replica order, nil for a replica that never reported (the run failed or
// was cancelled first), so aggregate output is bit-identical however the
// replicas were spread. Replica i always runs with
// DeriveSeed(req.Options.Seed, i); req.Options.Workers bounds parallelism
// and never affects results. A replica whose KindFunc returns an error
// fails the whole run: kind errors are deterministic (the same bytes fail
// everywhere), so no backend retries them.
type Backend interface {
	Execute(req ExecRequest) ([][]byte, error)
}

// Collect executes req on b and decodes each replica's JSON result into
// its slot of the returned slice, which always has req.Replicas entries:
// replicas that never reported keep zero values. The error is the run
// error, else the first decode error.
func Collect[T any](b Backend, req ExecRequest) ([]T, error) {
	out := make([]T, req.Replicas)
	raw, err := b.Execute(req)
	var decErr error
	for i, data := range raw {
		if data == nil {
			continue
		}
		if e := json.Unmarshal(data, &out[i]); e != nil && decErr == nil {
			decErr = fmt.Errorf("runner: decode %s replica %d: %w", req.Kind, i, e)
		}
	}
	if err != nil {
		return out, err
	}
	return out, decErr
}
