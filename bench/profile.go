package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the repository's modules the per-layer metrics attribute host
// time to; a frame belongs to the layer its package is named after.
var layers = []string{
	"sim", "linalg", "quantum", "werner", "device", "hardware", "linklayer",
	"core", "netsim", "signaling", "routing", "stats", "qnet",
}

// layerIndex maps a layer name to its index in layers.
var layerIndex = func() map[string]int {
	m := make(map[string]int, len(layers))
	for i, l := range layers {
		m[l] = i
	}
	return m
}()

// layerOf returns the layer index of a function symbol such as
// "qnp/internal/routing.(*Controller).worstCase" or
// "qnp/qnet.Scenario.Run", or -1 for frames outside the layers (the Go
// runtime, the standard library, the benchmark itself).
func layerOf(fn string) int {
	var rest string
	switch {
	case strings.HasPrefix(fn, "qnp/internal/"):
		rest = fn[len("qnp/internal/"):]
	case strings.HasPrefix(fn, "qnp/"):
		rest = fn[len("qnp/"):]
	default:
		return -1
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	if i, ok := layerIndex[rest]; ok {
		return i
	}
	return -1
}

// profile is a decoded CPU profile: each sample's stack of function names,
// innermost first (inlined frames expanded), and its weight.
type profile struct {
	stacks  [][]string
	weights []int64
}

// shares attributes the profile to layers. A sample's self time goes to the
// innermost frame that belongs to a layer, or to "runtime" when no frame
// does; its cumulative time goes once to every layer on its stack.
func (p *profile) shares() map[string]float64 {
	self := make([]int64, len(layers)+1) // last slot: runtime
	cum := make([]int64, len(layers))
	var total int64
	for i, stack := range p.stacks {
		w := p.weights[i]
		total += w
		inner := len(layers)
		var seen uint64
		for _, fn := range stack {
			l := layerOf(fn)
			if l < 0 {
				continue
			}
			if inner == len(layers) {
				inner = l
			}
			if seen&(1<<l) == 0 {
				seen |= 1 << l
				cum[l] += w
			}
		}
		self[inner] += w
	}
	out := make(map[string]float64, 2*len(layers)+1)
	share := func(v int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(v) / float64(total)
	}
	for i, l := range layers {
		out[l+".self_share"] = share(self[i])
		out[l+".cum_share"] = share(cum[i])
	}
	out["runtime.self_share"] = share(self[len(layers)])
	return out
}

// parseProfile decodes a gzipped pprof protobuf, as runtime/pprof writes
// it, with the standard library alone. It reads only what attribution
// needs: samples, locations, functions and the string table.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sampleRec struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sampleRec
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = fields(raw, func(f int, wt int, v uint64, b []byte) error {
		switch {
		case f == 2 && wt == 2: // Sample
			var s sampleRec
			err := fields(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, wt, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wt, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case f == 4 && wt == 2: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, wt int, v uint64, b []byte) error {
				switch {
				case f == 1 && wt == 0:
					id = v
				case f == 4 && wt == 2: // Line
					return fields(b, func(f int, wt int, v uint64, _ []byte) error {
						if f == 1 && wt == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case f == 5 && wt == 2: // Function
			var id uint64
			var name int64
			err := fields(b, func(f int, wt int, v uint64, _ []byte) error {
				switch {
				case f == 1 && wt == 0:
					id = v
				case f == 2 && wt == 0:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case f == 6 && wt == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx, ok := funcNames[fid]
				if !ok || idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("function %d has no name", fid)
				}
				stack = append(stack, strs[idx])
			}
		}
		p.stacks = append(p.stacks, stack)
		// The last value of a CPU profile sample is its CPU time.
		p.weights = append(p.weights, s.values[len(s.values)-1])
	}
	return p, nil
}

// appendUints appends a repeated integer field's values, packed or not.
func appendUints(dst *[]uint64, wt int, v uint64, b []byte) error {
	switch wt {
	case 0:
		*dst = append(*dst, v)
		return nil
	case 2:
		for len(b) > 0 {
			x, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad packed varint")
			}
			*dst = append(*dst, x)
			b = b[n:]
		}
		return nil
	}
	return fmt.Errorf("repeated integer with wire type %d", wt)
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value (wire type 0) or payload (wire type 2).
// Fixed-width fields are skipped.
func fields(b []byte, fn func(field, wireType int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}
