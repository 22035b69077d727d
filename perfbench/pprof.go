package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes just enough of a runtime/pprof CPU profile (gzipped
// protobuf, see github.com/google/pprof/proto/profile.proto) to charge
// each sample to a package, without a dependency outside the standard
// library.

// stackSample is one profile sample: its stack, leaf first, with
// inlined frames expanded innermost first, and its sample count.
type stackSample struct {
	funcs []string
	count int64
}

// readCPUProfile decodes the samples of a gzipped CPU profile.
func readCPUProfile(r io.Reader) ([]stackSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, fid := range locFuncs[l] {
				if i := funcNames[fid]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields walks the protobuf fields of b, passing each field's number and
// its varint value or length-delimited bytes. Fixed-width fields, which
// profile.proto does not use, are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
			continue
		default:
			return errBadProfile
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

var errBadProfile = errors.New("profile: malformed protobuf")

// appendPacked appends a repeated varint field given either unpacked
// (one value v) or packed (data holding the varints).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// uvarint decodes a base-128 varint, returning the byte count read (0
// or less when b is truncated or overlong).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// gcFuncs are runtime entry points whose samples are garbage
// collection work, wherever in the program they were triggered.
var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// modulePrefix is the import-path prefix of the repository's packages.
const modulePrefix = "faasbatch/internal/"

// chargePackage names the package a sample is charged to: "gc" for
// collector work, else the innermost repository package on the stack
// (so runtime work such as allocation is charged to its caller), else
// "other".
func chargePackage(funcs []string) string {
	for _, f := range funcs {
		for _, g := range gcFuncs {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if pkg, _, ok := strings.Cut(rest, "."); ok {
				return pkg
			}
		}
	}
	return "other"
}

// cpuShares is each package's share of the profile's samples, with the
// sample total.
func cpuShares(samples []stackSample) (map[string]float64, int64) {
	total := int64(0)
	by := map[string]int64{}
	for _, s := range samples {
		by[chargePackage(s.funcs)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(by))
	for k, v := range by {
		out[k] = ratio(float64(v), float64(total))
	}
	return out, total
}
