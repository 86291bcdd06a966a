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

// The CPU profile runtime/pprof writes is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The benchmark needs only
// each sample's CPU time and innermost function, so it decodes those few
// fields itself rather than depending on the pprof module.

// profSample is one decoded sample: its leaf location and CPU nanoseconds.
type profSample struct {
	leaf uint64
	ns   int64
}

type profile struct {
	samples []profSample
	leafFn  map[uint64]uint64 // location id -> innermost function id
	fnName  map[uint64]int64  // function id -> name string index
	fnFile  map[uint64]int64  // function id -> file string index
	strs    []string
	nsIndex int // index of the cpu/nanoseconds value in each sample
}

// selfByModule decodes a CPU profile and sums each sample's CPU time
// under the repository module that owns its innermost (leaf) function;
// see moduleOf. It also returns the number of samples.
func selfByModule(gz []byte) (map[string]int64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{leafFn: map[uint64]uint64{}, fnName: map[uint64]int64{}, fnFile: map[uint64]int64{}, nsIndex: -1}
	if err := p.decode(raw); err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		fn := p.leafFn[s.leaf]
		out[moduleOf(p.str(p.fnName[fn]), p.str(p.fnFile[fn]))] += s.ns
	}
	return out, len(p.samples), nil
}

// moduleOf names the layer a function belongs to: the package name under
// damq/internal, with the netsim files that implement observation,
// checkpointing and fault injection counted under obs, checkpoint and
// fault; "runtime" for the Go runtime (GC, scheduler, allocator); and
// "other" for everything else (standard library, facade, benchmark).
func moduleOf(fn, file string) string {
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "damq/internal/"):
		m := strings.TrimPrefix(pkg, "damq/internal/")
		if m == "netsim" {
			switch path.Base(file) {
			case "observe.go":
				return "obs"
			case "checkpoint.go":
				return "checkpoint"
			case "faults.go":
				return "fault"
			}
		}
		return m
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strs)) {
		return ""
	}
	return p.strs[i]
}

func (p *profile) decode(b []byte) error {
	var sampleTypes [][]byte
	var rawSamples [][]byte
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 1:
			sampleTypes = append(sampleTypes, data)
		case 2:
			rawSamples = append(rawSamples, data)
		case 4:
			return p.decodeLocation(data)
		case 5:
			return p.decodeFunction(data)
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Sample types refer to the string table, which may come last.
	for i, st := range sampleTypes {
		var typ, unit int64
		if err := eachField(st, func(field int, v uint64, _ []byte) error {
			switch field {
			case 1:
				typ = int64(v)
			case 2:
				unit = int64(v)
			}
			return nil
		}); err != nil {
			return err
		}
		if p.str(typ) == "cpu" && p.str(unit) == "nanoseconds" {
			p.nsIndex = i
		}
	}
	if p.nsIndex < 0 {
		return errors.New("no cpu/nanoseconds sample type")
	}
	for _, rs := range rawSamples {
		var locs []uint64
		var vals []uint64
		if err := eachField(rs, func(field int, v uint64, data []byte) error {
			switch field {
			case 1:
				locs = appendPacked(locs, v, data)
			case 2:
				vals = appendPacked(vals, v, data)
			}
			return nil
		}); err != nil {
			return err
		}
		if len(locs) == 0 || p.nsIndex >= len(vals) {
			continue
		}
		p.samples = append(p.samples, profSample{leaf: locs[0], ns: int64(vals[p.nsIndex])})
	}
	return nil
}

// decodeLocation records a location's innermost function: its first Line
// entry (the last entry is the caller the earlier ones were inlined into).
func (p *profile) decodeLocation(b []byte) error {
	var id, fn uint64
	haveLine := false
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 1:
			id = v
		case 4:
			if haveLine {
				return nil
			}
			haveLine = true
			return eachField(data, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					fn = v
				}
				return nil
			})
		}
		return nil
	})
	p.leafFn[id] = fn
	return err
}

func (p *profile) decodeFunction(b []byte) error {
	var id uint64
	var name, file int64
	err := eachField(b, func(field int, v uint64, _ []byte) error {
		switch field {
		case 1:
			id = v
		case 2:
			name = int64(v)
		case 4:
			file = int64(v)
		}
		return nil
	})
	p.fnName[id] = name
	p.fnFile[id] = file
	return err
}

// appendPacked appends one repeated-varint field occurrence, which is
// either a single varint (v) or a packed run of varints (data).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks the fields of one protobuf message. Varint fields
// arrive as v with data nil; length-delimited fields as data (non-nil).
// Fixed-width fields are skipped.
func eachField(b []byte, f func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
