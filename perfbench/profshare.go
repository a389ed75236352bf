package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// profileLabelKey and profileLabelRun tag the CPU-profile samples taken
// inside Machine.RunContext (set with runtime/pprof.Do), so the package
// split covers the simulation loop and nothing around it.
const (
	profileLabelKey = "layer"
	profileLabelRun = "sim.run"
)

// selfSamples reads a gzipped CPU profile as written by runtime/pprof and
// returns, for the samples that carry label key=value, the sample count
// per package of the sampled (innermost) function, keyed by the package's
// last path element ("lsq", "runtime", ...).
//
// The decoder understands only the fields of profile.proto it needs:
// Profile.sample (2), .location (4), .function (5) and .string_table (6);
// Sample.location_id (1), .value (2), .label (3); Label.key (1), .str (2);
// Location.id (1), .line (4); Line.function_id (1); Function.id (1),
// .name (2).
func selfSamples(gz []byte, key, value string) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		leaf   uint64
		count  int64
		labels [][2]uint64 // (key, str) string-table indices
	}
	var (
		samples []sample
		strs    []string
		locFunc = map[uint64]uint64{} // location ID → innermost function ID
		funcs   = map[uint64]uint64{} // function ID → name string index
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			first, nvals := true, 0
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return eachUint(v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2:
					return eachUint(v, b, func(x uint64) {
						if nvals == 0 {
							s.count = int64(x)
						}
						nvals++
					})
				case 3:
					var kv [2]uint64
					err := eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			first := true
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if first {
						first = false
						return eachField(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	byPkg := map[string]int64{}
	var total int64
	for _, s := range samples {
		match := false
		for _, kv := range s.labels {
			if str(kv[0]) == key && str(kv[1]) == value {
				match = true
			}
		}
		if !match {
			continue
		}
		byPkg[funcPackage(str(funcs[locFunc[s.leaf]]))] += s.count
		total += s.count
	}
	return byPkg, total, nil
}

// funcPackage returns the last element of the package path of a symbol
// name such as "repro/internal/lsq.(*Queue).TakeCertifiable" or
// "repro/internal/sched.(*Wheel[go.shape.int]).Push" ("lsq", "sched").
func funcPackage(name string) string {
	if i := strings.IndexAny(name, "[("); i >= 0 {
		name = name[:i]
	}
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	return name
}

// eachField walks the fields of one protobuf message, calling fn with the
// field number and either the varint value or the length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field tag")
		}
		b = b[n:]
		field, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", field)
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", field)
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// eachUint calls fn for each value of a repeated varint field, which the
// encoder may write packed (b holds the values) or one per tag (v).
func eachUint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
