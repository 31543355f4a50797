// Package cli holds the command-line flags that cmd/figures and cmd/qnpsim
// share, so both binaries spell, default and interpret them identically.
package cli

import (
	"flag"
	"fmt"
	"time"

	"qnp/internal/runner"
	"qnp/qnet"
)

// ShardFlags are the process-sharding flags: -shards, -fleet-throttle,
// -resume and -worker-timeout.
type ShardFlags struct {
	shards        *int
	throttle      *time.Duration
	resume        *string
	workerTimeout *time.Duration
}

// RegisterShardFlags registers the sharding flags on fs.
func RegisterShardFlags(fs *flag.FlagSet) *ShardFlags {
	return &ShardFlags{
		shards:        fs.Int("shards", 0, "worker processes to shard replicas across, work-stealing from one chunk queue; -workers is split among them (0 = in-process)"),
		throttle:      fs.Duration("fleet-throttle", 0, "artificial per-chunk delay on the last -shards worker (steal-schedule testing; results are unaffected)"),
		resume:        fs.String("resume", "", "checkpoint journal directory: completed replicas spill here and a re-run resumes instead of restarting (implies -shards 1 when -shards is unset)"),
		workerTimeout: fs.Duration("worker-timeout", 0, "heartbeat bound for -shards workers: a worker silent this long is declared lost and its chunk re-run (0 = 10m default; negative disables)"),
	}
}

// Backend returns the local worker-process fleet the flags ask for, with
// workers (0 = NumCPU) split among its processes, or nil to run
// in-process. Only the fleet journals, so -resume without -shards implies
// one worker process.
func (f *ShardFlags) Backend(workers int) runner.Backend {
	n := *f.shards
	if *f.resume != "" && n == 0 {
		n = 1
	}
	if n <= 0 {
		return nil
	}
	eps := runner.LocalEndpoints(n, workers)
	if *f.throttle > 0 {
		eps[len(eps)-1].Throttle = *f.throttle
	}
	return runner.Fleet{Endpoints: eps, Heartbeat: *f.workerTimeout, Journal: *f.resume}
}

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
