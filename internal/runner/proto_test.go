package runner

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestReadFrameAllocatesWhatArrives: a length prefix promising the largest
// legal frame, followed by a few stray bytes, fails as a torn frame without
// allocating the promised size first.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	data := binary.BigEndian.AppendUint32(nil, maxFrame)
	data = append(data, "stray"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := readFrame(bufio.NewReader(bytes.NewReader(data)), new(resultFrame))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("err = %v, want a torn-body error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<24 {
		t.Errorf("readFrame allocated %d bytes for a %d-byte input", got, len(data))
	}
	over := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	if err := readFrame(bufio.NewReader(bytes.NewReader(over)), new(resultFrame)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized prefix: err = %v, want the protocol-limit error", err)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the worker stream reader, as a
// worker's stdout (result frames) and as a worker's stdin (a job frame):
// bad input is an error, never a panic, and every frame it accepts
// survives writeFrame and readFrame unchanged.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		readFrames[resultFrame](t, data)
		readFrames[jobFrame](t, data)
	})
}

// readFrames reads T frames from data until the first error, round-tripping
// each one.
func readFrames[T any](t *testing.T, data []byte) {
	br := bufio.NewReader(bytes.NewReader(data))
	for {
		var v T
		if err := readFrame(br, &v); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, v); err != nil {
			t.Fatalf("re-encode accepted frame %+v: %v", v, err)
		}
		var w T
		if err := readFrame(bufio.NewReader(&buf), &w); err != nil {
			t.Fatalf("re-read accepted frame %+v: %v", v, err)
		}
		if !reflect.DeepEqual(v, w) {
			t.Fatalf("frame changed in a round trip:\n got %+v\nwant %+v", w, v)
		}
	}
}

// FuzzScanFrame feeds arbitrary bytes to the journal reader as a header
// frame followed by records: bad input is an error, never a panic; an
// accepted frame advances the offset within the data, and survives
// writeFrame and scanFrame unchanged.
func FuzzScanFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		off := scanFrames[journalHeader](t, data, 0, 1)
		scanFrames[journalRecord](t, data, off, len(data))
	})
}

// scanFrames scans up to limit T frames from data[off:] and returns the
// offset past the last one it accepted.
func scanFrames[T any](t *testing.T, data []byte, off, limit int) int {
	for i := 0; i < limit; i++ {
		var v T
		next, err := scanFrame(data, off, &v)
		if err != nil {
			if next != off {
				t.Fatalf("rejected frame at %d moved the offset to %d", off, next)
			}
			if err == io.EOF && off != len(data) {
				t.Fatalf("clean end reported at %d of %d bytes", off, len(data))
			}
			return off
		}
		if next <= off || next > len(data) {
			t.Fatalf("accepted frame at %d ends at %d of %d bytes", off, next, len(data))
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, v); err != nil {
			t.Fatalf("re-encode accepted frame %+v: %v", v, err)
		}
		var w T
		if end, err := scanFrame(buf.Bytes(), 0, &w); err != nil || end != buf.Len() {
			t.Fatalf("re-scan accepted frame %+v: end %d of %d, %v", v, end, buf.Len(), err)
		}
		if !reflect.DeepEqual(v, w) {
			t.Fatalf("frame changed in a round trip:\n got %+v\nwant %+v", w, v)
		}
		off = next
	}
	return off
}
