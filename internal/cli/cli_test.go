package cli

import (
	"flag"
	"testing"

	"qnp/internal/runner"
	"qnp/qnet"
)

func TestShardFlagsBackend(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		endpoints int
	}{
		{nil, 0},
		{[]string{"-shards", "3"}, 3},
		{[]string{"-resume", "ckpt"}, 1},
		{[]string{"-shards", "2", "-fleet-throttle", "30ms", "-worker-timeout", "1m", "-resume", "ckpt"}, 2},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := RegisterShardFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		b := f.Backend(4)
		if tc.endpoints == 0 {
			if b != nil {
				t.Errorf("%v: backend %v, want in-process", tc.args, b)
			}
			continue
		}
		fleet, ok := b.(runner.Fleet)
		if !ok || len(fleet.Endpoints) != tc.endpoints {
			t.Fatalf("%v: backend %#v, want a %d-endpoint fleet", tc.args, b, tc.endpoints)
		}
		if *f.resume != fleet.Journal || *f.workerTimeout != fleet.Heartbeat {
			t.Errorf("%v: journal %q heartbeat %v not taken from the flags", tc.args, fleet.Journal, fleet.Heartbeat)
		}
		if last := fleet.Endpoints[len(fleet.Endpoints)-1]; last.Throttle != *f.throttle {
			t.Errorf("%v: last endpoint throttle %v, want %v", tc.args, last.Throttle, *f.throttle)
		}
		if *f.throttle > 0 && fleet.Endpoints[0].Throttle != 0 {
			t.Errorf("%v: throttle applied beyond the last endpoint", tc.args)
		}
	}
}

func TestParsePhysics(t *testing.T) {
	for name, want := range map[string]qnet.Physics{"exact": qnet.PhysicsExact, "werner": qnet.PhysicsWerner} {
		if got, err := ParsePhysics(name); err != nil || got != want {
			t.Errorf("ParsePhysics(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePhysics("bogus"); err == nil || err.Error() != `unknown physics engine "bogus" (want exact or werner)` {
		t.Errorf("ParsePhysics(bogus) error = %v", err)
	}
}
