package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with the standard library only, and charges each sample
// to one layer of the program.

// profSample is one decoded profile sample: its call stack, innermost
// frame first with inlined frames expanded, and its CPU nanoseconds.
type profSample struct {
	stack []string
	ns    int64
}

// protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wireBytes  = 2
)

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

var errTruncated = errors.New("truncated protobuf")

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflows 64 bits")
}

// next returns the next field's number and wire type, and its payload:
// the value for a varint, the bytes for a length-delimited field.
// Fixed-width fields are skipped.
func (r *pbReader) next() (field int, wire int, v uint64, data []byte, err error) {
	for {
		key, err := r.varint()
		if err != nil {
			return 0, 0, 0, nil, err
		}
		field, wire = int(key>>3), int(key&7)
		switch wire {
		case wireVarint:
			v, err = r.varint()
			return field, wire, v, nil, err
		case wireBytes:
			n, err := r.varint()
			if err != nil {
				return 0, 0, 0, nil, err
			}
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
			return field, wire, 0, data, nil
		case 1, 5: // fixed64, fixed32
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(r.b) < w {
				return 0, 0, 0, nil, errTruncated
			}
			r.b = r.b[w:]
		default:
			return 0, 0, 0, nil, fmt.Errorf("unsupported wire type %d", wire)
		}
	}
}

// repeatedVarints appends a repeated integer field's values, packed or
// not.
func repeatedVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// decodeProfile parses a gzipped CPU profile into samples.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]uint64{}   // function id -> string index
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, wire, _, data, err := r.next()
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if wire != wireBytes {
			continue
		}
		m := pbReader{data}
		switch field {
		case 1: // sample_type: ValueType{type, unit}
			for len(m.b) > 0 {
				f, _, v, _, err := m.next()
				if err != nil {
					return nil, fmt.Errorf("profile: %w", err)
				}
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
			}
		case 2: // sample: Sample{location_id, value, label}
			var s rawSample
			for len(m.b) > 0 {
				f, w, v, d, err := m.next()
				if err != nil {
					return nil, fmt.Errorf("profile: %w", err)
				}
				switch f {
				case 1:
					s.locs, err = repeatedVarints(s.locs, w, v, d)
				case 2:
					s.values, err = repeatedVarints(s.values, w, v, d)
				}
				if err != nil {
					return nil, fmt.Errorf("profile: %w", err)
				}
			}
			samples = append(samples, s)
		case 4: // location: Location{id, mapping_id, address, line}
			var id uint64
			var fns []uint64
			for len(m.b) > 0 {
				f, _, v, d, err := m.next()
				if err != nil {
					return nil, fmt.Errorf("profile: %w", err)
				}
				switch f {
				case 1:
					id = v
				case 4: // Line{function_id, line}
					l := pbReader{d}
					for len(l.b) > 0 {
						lf, _, lv, _, err := l.next()
						if err != nil {
							return nil, fmt.Errorf("profile: %w", err)
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // function: Function{id, name, system_name, filename, start_line}
			var id, name uint64
			for len(m.b) > 0 {
				f, _, v, _, err := m.next()
				if err != nil {
					return nil, fmt.Errorf("profile: %w", err)
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU time is the value whose type is "cpu"; the other is the sample
	// count.
	vi := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{ns: int64(s.values[vi])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.stack = append(ps.stack, str(funcName[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// programLayers are the program's packages a profile sample can be
// charged to.
var programLayers = []string{
	"vclock", "gpu", "core", "kernels", "gstruct", "membuf", "flink", "plan",
	"stream", "obs", "netsim", "hdfs", "costmodel", "workloads",
}

// hostLayers are all the buckets: the program's packages, the benchmark
// itself, and three runtime buckets.
var hostLayers = append(programLayers[:len(programLayers):len(programLayers)], "bench", "sched", "gc", "other")

// layerOf charges a stack to the package of its innermost frame in the
// program (the benchmark's own code counts as "bench"). A stack with no
// such frame goes to "gc" when a GC worker runs it, to "sched" when it is
// the runtime scheduler handing goroutines off, and to "other"
// otherwise.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "gflink/benchmark.") {
			return "bench"
		}
		if rest, ok := strings.CutPrefix(fn, "gflink/internal/"); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			for _, l := range programLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
			"runtime.goexit0", "runtime.gosched_m", "runtime.goschedImpl",
			"runtime.mcall", "runtime.stopm", "runtime.startm", "runtime.wakep":
			return "sched"
		}
	}
	return "other"
}

// bucketProfile sums sample CPU time per layer. Every sample lands in
// exactly one bucket, so the buckets add up to the profile's total.
func bucketProfile(samples []profSample) (buckets map[string]int64, total int64) {
	buckets = make(map[string]int64, len(hostLayers))
	for _, s := range samples {
		buckets[layerOf(s.stack)] += s.ns
		total += s.ns
	}
	return buckets, total
}
