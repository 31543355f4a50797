package runner

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// The shard worker protocol: every message is a frame of a 4-byte
// big-endian length followed by that many bytes of JSON. The parent sends
// exactly one jobFrame on the worker's stdin and closes it; the worker
// answers with one resultFrame per replica on stdout, in ascending replica
// order, and exits 0. Any other behaviour — short read, oversized frame,
// nonzero exit, silence past the heartbeat bound — counts as a shard
// crash, which the parent may retry because replicas are pure functions of
// (payload, replica, seed).

// maxFrame bounds a frame so a corrupted length prefix fails fast instead
// of attempting a multi-gigabyte allocation.
const maxFrame = 1 << 28

// jobFrame is the single parent→worker message: one shard of a run.
type jobFrame struct {
	// Kind names the registered job kind to execute.
	Kind string
	// Payload is the kind's job description, opaque to the protocol.
	Payload []byte
	// Seed is the run's base seed: replica i (global index) runs with
	// DeriveSeed(Seed, i), exactly as in-process replicas do.
	Seed int64
	// Start and Count delimit this shard's contiguous global replica range
	// [Start, Start+Count).
	Start, Count int
	// Workers bounds the shard's in-process parallelism (0 = NumCPU).
	Workers int
	// Heartbeat, when positive, asks the worker to interleave a heartbeat
	// frame at this interval while replicas are in flight — the Fleet
	// liveness protocol, which tolerates replicas longer than the liveness
	// bound while still detecting dead processes and partitioned hosts.
	// Zero (liveness detection disabled) sends results only.
	Heartbeat time.Duration `json:",omitempty"`
}

// resultFrame is one replica's worker→parent answer.
type resultFrame struct {
	// Replica is the global replica index.
	Replica int
	// Result is the replica's encoded result when Err is empty.
	Result []byte
	// Err reports a KindFunc error. Kind errors are deterministic, so the
	// parent fails the run rather than retrying the shard.
	Err string `json:",omitempty"`
	// Heartbeat marks a liveness-only frame: no replica, no result — it
	// exists solely to reset the reader's watchdog (see jobFrame.Heartbeat).
	Heartbeat bool `json:",omitempty"`
}

// writeFrame encodes v as JSON and writes it length-prefixed.
func writeFrame(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: encode frame: %w", err)
	}
	if len(b) > maxFrame {
		return fmt.Errorf("runner: frame of %d bytes exceeds the %d-byte protocol limit", len(b), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// readFrame reads one length-prefixed JSON frame into v. io.EOF is returned
// untranslated on a clean end-of-stream so callers can distinguish it from
// a torn frame.
func readFrame(r *bufio.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("runner: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("runner: frame of %d bytes exceeds the %d-byte protocol limit", n, maxFrame)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return fmt.Errorf("runner: read frame body: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("runner: decode frame: %w", err)
	}
	return nil
}
