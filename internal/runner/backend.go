package runner

import (
	"context"
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

// A Backend executes the replicas of a registered job kind. Dispatch
// starts the run and returns an Execution whose Results channel streams
// each replica's encoded result in strict replica order, so aggregate output is bit-identical regardless of where and
// with how much parallelism the replicas actually ran. Replica i always
// runs with DeriveSeed(req.Options.Seed, i); req.Options.Workers bounds
// per-process parallelism and never affects results.
//
// Dispatch returns an error only for requests that cannot start at all
// (unknown kind, unresolvable worker command, unusable journal); runtime
// failures surface from Execution.Wait. A replica whose KindFunc returns
// an error fails the whole execution: kind errors are deterministic (the
// same bytes fail everywhere), so no backend retries them.
type Backend interface {
	Dispatch(req ExecRequest) (*Execution, error)
}

// Collect dispatches req on b and decodes each replica's JSON result into
// its slot of the returned slice, which always has req.Replicas entries:
// replicas that never reported (a failed or cancelled run) keep zero
// values. The error is the dispatch or run error, else the first decode
// error.
func Collect[T any](b Backend, req ExecRequest) ([]T, error) {
	out := make([]T, req.Replicas)
	ex, err := b.Dispatch(req)
	if err != nil {
		return out, err
	}
	var decErr error
	for r := range ex.Results() {
		if e := json.Unmarshal(r.Data, &out[r.Replica]); e != nil && decErr == nil {
			decErr = fmt.Errorf("runner: decode %s replica %d: %w", req.Kind, r.Replica, e)
		}
	}
	if err = ex.Wait(); err != nil {
		return out, err
	}
	return out, decErr
}

// InProcess executes replicas on a goroutine pool inside the calling
// process — the Backend form of Run. It still routes payloads and results
// through the job-kind codec, so it exercises exactly the bytes a
// process-sharded run would ship; use Run directly to skip encoding
// entirely.
type InProcess struct{}

// Dispatch implements Backend.
func (InProcess) Dispatch(req ExecRequest) (*Execution, error) {
	fn, err := lookupKind(req.Kind)
	if err != nil {
		return nil, err
	}
	if req.Replicas <= 0 {
		return completedExecution(nil), nil
	}
	e := newExecution(req.Replicas)
	go func() { e.finish(inProcessRun(fn, req, e.emit)) }()
	return e, nil
}

// inProcessRun is the pool run behind InProcess.Dispatch, delivering
// results to emit in strict replica order.
func inProcessRun(fn KindFunc, req ExecRequest, emit func(replica int, result []byte)) error {
	// A deterministic kind error dooms the run; cancel the pool so the
	// remaining replicas stop claiming (Fleet does the same for its
	// sibling endpoints) instead of simulating results nobody will read.
	o := req.Options
	parent := o.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	o.Context = ctx
	type res struct {
		b   []byte
		err error
	}
	// stream serializes sink calls under its own lock, so firstErr needs no
	// extra synchronization.
	var firstErr error
	serr := stream(o, req.Replicas, func(replica int, seed int64) res {
		b, err := fn(req.Payload, replica, seed)
		return res{b, err}
	}, func(replica int, v res) {
		if v.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("runner: %s replica %d: %w", req.Kind, replica, v.err)
				cancel()
			}
			return
		}
		if firstErr == nil {
			emit(replica, v.b)
		}
	})
	if firstErr != nil {
		return firstErr
	}
	if serr != nil {
		// stream saw our internal cancel context; report the caller's.
		return parent.Err()
	}
	return nil
}

var _ Backend = InProcess{}
