package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// goRuntime is where samples with no repository frame on their stack
// go: the garbage collector's workers, the scheduler, and the
// benchmark's own code.
const goRuntime = "go-runtime"

// attribute decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and sums each sample's CPU time onto the innermost
// ibis/internal module on its stack.
func attribute(gz []byte) (map[string]int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	vi := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			vi = i
		}
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		out[p.moduleOf(s.locations)] += s.values[vi]
	}
	return out, nil
}

// moduleOf walks a stack from the leaf and names the first repository
// module it meets. Within a location, inlined frames come innermost
// first, as pprof stores them.
func (p *profile) moduleOf(stack []uint64) string {
	for _, loc := range stack {
		for _, fn := range p.locations[loc] {
			f := p.functions[fn]
			if m := module(p.str(f.name), p.str(f.file)); m != "" {
				return m
			}
		}
	}
	return goRuntime
}

// module names the repository module a function belongs to, or "" for
// code outside ibis/internal. The sim module is split by source file,
// which follows its receivers: the Engine and its timing wheel, the
// Fabric and its Shards, and the PSResource.
func module(function, file string) string {
	rest, ok := strings.CutPrefix(function, "ibis/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if rest != "sim" {
		return rest
	}
	switch path.Base(file) {
	case "fabric.go":
		return "sim.fabric"
	case "psresource.go":
		return "sim.ps"
	default:
		return "sim.engine"
	}
}

// profile holds the parts of a pprof Profile message attribution needs.
type profile struct {
	sampleTypes []int64 // string index of each sample value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]function
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

type function struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto
// (github.com/google/pprof/proto/profile.proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID       = 1
	functionName     = 2
	functionFilename = 4
)

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]function{}}
	err = eachField(raw, func(num int, f field) error {
		switch num {
		case profSampleType:
			var t int64
			err := eachField(f.data, func(num int, f field) error {
				if num == valueTypeType {
					t = int64(f.v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, t)
			return err
		case profSample:
			var s sample
			err := eachField(f.data, func(num int, f field) error {
				switch num {
				case sampleLocationID:
					return f.uints(func(v uint64) { s.locations = append(s.locations, v) })
				case sampleValue:
					return f.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(num int, f field) error {
				switch num {
				case locationID:
					id = f.v
				case locationLine:
					return eachField(f.data, func(num int, f field) error {
						if num == lineFunction {
							fns = append(fns, f.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var fn function
			err := eachField(f.data, func(num int, f field) error {
				switch num {
				case functionID:
					id = f.v
				case functionName:
					fn.name = int64(f.v)
				case functionFilename:
					fn.file = int64(f.v)
				}
				return nil
			})
			p.functions[id] = fn
			return err
		case profStringTable:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// field is one decoded protobuf field: v for varint and fixed-width
// wire types, data for length-delimited ones.
type field struct {
	wire int
	v    uint64
	data []byte
}

// uints calls fn for each value of a repeated integer field, packed or
// not.
func (f field) uints(fn func(uint64)) error {
	if f.wire != wireBytes {
		fn(f.v)
		return nil
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls fn for every top-level field of a protobuf message.
func eachField(b []byte, fn func(num int, f field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := field{wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return errTruncated
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errTruncated
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := fn(int(key>>3), f); err != nil {
			return err
		}
	}
	return nil
}
