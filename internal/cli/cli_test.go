package cli

import (
	"flag"
	"testing"
	"time"

	"qnp/internal/runner"
	"qnp/qnet"
)

func TestShardFlagsBackend(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want runner.Fleet // Shards 0: run in-process
	}{
		{nil, runner.Fleet{}},
		{[]string{"-shards", "3"}, runner.Fleet{Shards: 3}},
		{[]string{"-resume", "ckpt"}, runner.Fleet{Shards: 1, Journal: "ckpt"}},
		{[]string{"-shards", "2", "-fleet-throttle", "30ms", "-worker-timeout", "1m", "-resume", "ckpt"},
			runner.Fleet{Shards: 2, Throttle: 30 * time.Millisecond, Heartbeat: time.Minute, Journal: "ckpt"}},
		{[]string{"-shards", "2", "-worker-timeout", "-1s"}, runner.Fleet{Shards: 2, Heartbeat: -time.Second}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := RegisterShardFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got := f.Backend()
		if tc.want.Shards == 0 {
			if got != nil {
				t.Errorf("%v: backend %#v, want in-process", tc.args, got)
			}
			continue
		}
		fl, ok := got.(runner.Fleet)
		w := tc.want
		if !ok || fl.Shards != w.Shards || fl.Throttle != w.Throttle || fl.Heartbeat != w.Heartbeat || fl.Journal != w.Journal {
			t.Errorf("%v: backend %#v, want %#v", tc.args, got, w)
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
