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

// stack is one CPU-profile sample: function names innermost first, with
// inlined calls expanded, and the number of samples taken at that stack.
type stack struct {
	frames []string
	n      int64
}

// parseProfile decodes the gzipped protocol buffer runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto). Only samples, locations,
// functions and the string table are read; the first sample value is the
// sample count.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]uint64{}   // function id -> name's string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num, typ int, _ uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := fields(b, func(num, typ int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = uints(s.locs, typ, v, b)
				case 2:
					vals, err = uints(vals, typ, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				return fmt.Errorf("%w: sample without values", errProto)
			}
			s.n = int64(vals[0])
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{n: s.n}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("malformed protocol buffer")

// fields calls fn for each field of the protocol buffer message b. Varint
// and fixed-width values arrive in v, length-delimited payloads in data.
func fields(b []byte, fn func(num, typ int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch typ := key & 7; typ {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, typ)
		}
		if err := fn(int(key>>3), int(key&7), v, data); err != nil {
			return err
		}
	}
	return nil
}

// uints appends a repeated integer field's values, packed or not.
func uints(dst []uint64, typ int, v uint64, data []byte) ([]uint64, error) {
	if typ != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// cpuBuckets lists every bucket a sample can land in, in report order.
// Repository packages with their own bucket are named by their last path
// element; "system" is the root spandex package.
var cpuBuckets = []string{
	"workload", "sim", "device", "cache", "core", "conform", "mcheck",
	"stats", "noc", "hmesi", "mesi", "denovo", "gpucoh", "dram", "system",
	"other_repo", "runtime.gc", "runtime.coro", "runtime.other",
}

// bucketOf charges one sample to a layer. In order: GC background work,
// then coroutine switches, then the innermost repository frame (so malloc
// and standard-library time is charged to its caller), else runtime.other.
func bucketOf(frames []string) string {
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "runtime.gc"
		}
	}
	for _, f := range frames {
		if f == "runtime.coroswitch" || f == "runtime.coroswitch_m" {
			return "runtime.coro"
		}
	}
	for _, f := range frames {
		if b := repoBucket(funcPackage(f)); b != "" {
			return b
		}
	}
	return "runtime.other"
}

// repoBucket names the bucket of a repository package, or "" for any other
// package. The benchmark's own package (main) counts as other_repo.
func repoBucket(pkg string) string {
	if pkg == "spandex" {
		return "system"
	}
	if pkg == "main" {
		return "other_repo"
	}
	rest, ok := strings.CutPrefix(pkg, "spandex/internal/")
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(rest, "/")
	for _, b := range cpuBuckets {
		if b == name {
			return b
		}
	}
	return "other_repo"
}

// funcPackage extracts the import path from a profiled function name such
// as "spandex/internal/sim.(*Engine).RunUntil" or "main.main". Type
// arguments and receivers may contain dots and slashes of their own, so
// only the text before the first '(' or '[' is considered.
func funcPackage(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// cpuProfile accumulates samples per bucket over one or more profiles.
type cpuProfile struct {
	buckets map[string]int64
	alloc   int64 // samples with runtime.mallocgc on the stack
	total   int64
}

func (p *cpuProfile) add(stacks []stack) {
	if p.buckets == nil {
		p.buckets = map[string]int64{}
	}
	for _, s := range stacks {
		p.buckets[bucketOf(s.frames)] += s.n
		p.total += s.n
		for _, f := range s.frames {
			if f == "runtime.mallocgc" {
				p.alloc += s.n
				break
			}
		}
	}
}

// shares reports each bucket's share of samples as cpu.<bucket>_share,
// plus the cross-cutting cpu.alloc_share.
func (p *cpuProfile) shares() map[string]float64 {
	m := map[string]float64{"cpu.alloc_share": 0}
	for _, b := range cpuBuckets {
		m["cpu."+b+"_share"] = 0
	}
	if p.total == 0 {
		return m
	}
	for b, n := range p.buckets {
		m["cpu."+b+"_share"] = float64(n) / float64(p.total)
	}
	m["cpu.alloc_share"] = float64(p.alloc) / float64(p.total)
	return m
}
