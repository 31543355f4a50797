package runner

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The fleet checkpoint journal is an append-only file of the same
// length-prefixed JSON frames the worker protocol uses: one journalHeader
// frame binding the file to a job identity, then one journalRecord frame
// per completed replica in arrival order. Every record carries a checksum
// over (replica, result), so silent corruption is detected and reported;
// a torn final record — the parent died mid-append — is recognized as
// clean truncation, dropped, and overwritten by the resumed run. Appends
// are a single write each, so a crash can tear at most the final record.

// journalHeader stamps a journal with the job it checkpoints. The file
// name already encodes the same identity; the header catches renamed or
// copied files.
type journalHeader struct {
	Kind       string
	Seed       int64
	Replicas   int
	PayloadCRC uint32
}

// journalRecord is one completed replica.
type journalRecord struct {
	Replica int
	Result  []byte
	// CRC is recordCRC(Replica, Result): corruption of either field —
	// including a record claiming the wrong replica — fails the checksum.
	CRC uint32
}

func recordCRC(replica int, result []byte) uint32 {
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], uint64(replica))
	c := crc32.ChecksumIEEE(idx[:])
	return crc32.Update(c, crc32.IEEETable, result)
}

func headerFor(req ExecRequest) journalHeader {
	return journalHeader{Kind: req.Kind, Seed: req.Options.Seed, Replicas: req.Replicas, PayloadCRC: crc32.ChecksumIEEE(req.Payload)}
}

// journalPath derives the per-job journal file under dir: one job identity,
// one file, so a directory can checkpoint a whole figure suite.
func journalPath(dir string, req ExecRequest) string {
	kind := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		}
		return '_'
	}, req.Kind)
	return filepath.Join(dir, fmt.Sprintf("%s-%08x-s%d-n%d.journal", kind, crc32.ChecksumIEEE(req.Payload), req.Options.Seed, req.Replicas))
}

// scanFrame decodes the length-prefixed JSON frame at data[off:] and
// returns the offset past it. io.EOF means a clean end exactly at off;
// io.ErrUnexpectedEOF means the frame is torn (a truncated final write).
func scanFrame(data []byte, off int, v any) (int, error) {
	if off+4 > len(data) {
		if off == len(data) {
			return off, io.EOF
		}
		return off, io.ErrUnexpectedEOF
	}
	n := int(binary.BigEndian.Uint32(data[off:]))
	if n > maxFrame {
		return off, fmt.Errorf("frame of %d bytes exceeds the %d-byte protocol limit", n, maxFrame)
	}
	if off+4+n > len(data) {
		return off, io.ErrUnexpectedEOF
	}
	if err := json.Unmarshal(data[off+4:off+4+n], v); err != nil {
		return off, fmt.Errorf("decode frame: %w", err)
	}
	return off + 4 + n, nil
}

// journal is the open append handle. Its one writer, the fleet's
// collector, serializes appends and drops duplicate arrivals.
type journal struct {
	f    *os.File
	path string
}

// openJournal loads (or creates) the journal for req under dir, returning
// the append handle and the recovered replica results. A journal written
// by a different job, or one whose content fails its checksums, is
// reported as an error; a torn final record is truncated away.
func openJournal(dir string, req ExecRequest) (*journal, map[int][]byte, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("runner: journal dir: %w", err)
	}
	path := journalPath(dir, req)
	want := headerFor(req)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("runner: read journal: %w", err)
	}
	recovered := map[int][]byte{}
	goodLen := 0
	if len(data) > 0 {
		var hdr journalHeader
		off, err := scanFrame(data, 0, &hdr)
		switch {
		case err == io.ErrUnexpectedEOF:
			// The header itself is torn: nothing is recoverable, start the
			// journal over from scratch.
		case err != nil:
			return nil, nil, fmt.Errorf("runner: journal %s corrupted: %v", path, err)
		case hdr != want:
			return nil, nil, fmt.Errorf("runner: journal %s was written by a different job (kind %q seed %d replicas %d payload %08x; this job is kind %q seed %d replicas %d payload %08x)",
				path, hdr.Kind, hdr.Seed, hdr.Replicas, hdr.PayloadCRC, want.Kind, want.Seed, want.Replicas, want.PayloadCRC)
		default:
			goodLen = off
			for off < len(data) {
				var rec journalRecord
				next, err := scanFrame(data, off, &rec)
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					// Torn tail: the process died mid-append. Everything
					// before it is intact; the truncate below drops it.
					break
				}
				if err != nil {
					return nil, nil, fmt.Errorf("runner: journal %s corrupted at byte %d: %v", path, off, err)
				}
				if rec.CRC != recordCRC(rec.Replica, rec.Result) {
					return nil, nil, fmt.Errorf("runner: journal %s corrupted at byte %d: replica %d record fails its checksum", path, off, rec.Replica)
				}
				if rec.Replica < 0 || rec.Replica >= req.Replicas {
					return nil, nil, fmt.Errorf("runner: journal %s corrupted at byte %d: replica %d out of range [0,%d)", path, off, rec.Replica, req.Replicas)
				}
				if _, dup := recovered[rec.Replica]; !dup {
					recovered[rec.Replica] = rec.Result
				}
				off = next
				goodLen = off
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("runner: open journal: %w", err)
	}
	if err := f.Truncate(int64(goodLen)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("runner: truncate journal torn tail: %w", err)
	}
	if _, err := f.Seek(int64(goodLen), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("runner: seek journal: %w", err)
	}
	j := &journal{f: f, path: path}
	if goodLen == 0 {
		if err := j.appendFrame(want); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("runner: stamp journal header: %w", err)
		}
	}
	return j, recovered, nil
}

// append spills one completed replica to disk.
func (j *journal) append(replica int, result []byte) error {
	rec := journalRecord{Replica: replica, Result: result, CRC: recordCRC(replica, result)}
	if err := j.appendFrame(rec); err != nil {
		return fmt.Errorf("append replica %d to journal %s: %w", replica, j.path, err)
	}
	return nil
}

// appendFrame writes one frame in a single Write call, so a dying process
// tears at most the final record.
func (j *journal) appendFrame(v any) error {
	var buf bytes.Buffer
	if err := writeFrame(&buf, v); err != nil {
		return err
	}
	_, err := j.f.Write(buf.Bytes())
	return err
}

func (j *journal) close() error { return j.f.Close() }
