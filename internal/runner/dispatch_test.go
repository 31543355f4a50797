package runner

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestTimeoutResolution pins the one-knob liveness contract: a zero
// Fleet.Heartbeat resolves to the package default, a negative one disables
// the watchdog, and a positive one is used as is.
func TestTimeoutResolution(t *testing.T) {
	for _, tc := range []struct {
		heartbeat, want time.Duration
	}{
		{0, defaultShardTimeout},
		{-1, 0},
		{-time.Minute, 0},
		{time.Second, time.Second},
		{time.Minute, time.Minute},
	} {
		if got := (Fleet{Heartbeat: tc.heartbeat}).heartbeat(); got != tc.want {
			t.Errorf("Fleet{Heartbeat: %v}.heartbeat() = %v, want %v", tc.heartbeat, got, tc.want)
		}
	}
}

// TestWaitWithoutDraining: the results channel is buffered for the full
// replica count, so Wait without consuming Results must not deadlock.
func TestWaitWithoutDraining(t *testing.T) {
	const n = 50
	ex, err := InProcess{}.Dispatch(ExecRequest{Kind: "test.echo", Payload: []byte(`"d"`), Replicas: n, Options: Options{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	i := 0
	for r := range ex.Results() {
		want, _ := json.Marshal(fmt.Sprintf(`"d"/r%d/s%d`, i, DeriveSeed(4, i)))
		if r.Replica != i || string(r.Data) != string(want) {
			t.Fatalf("post-Wait result %d = {%d %s}, want {%d %s}", i, r.Replica, r.Data, i, want)
		}
		i++
	}
	if i != n {
		t.Fatalf("drained %d of %d buffered results after Wait", i, n)
	}
}
