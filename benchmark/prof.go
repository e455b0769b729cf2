package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// profModules are the layers CPU samples are charged to: the simulator's
// modules on the measured paths, the Go runtime, and everything else.
var profModules = []string{
	"workload", "sim", "core", "instance", "rckm", "gpu", "sched", "cluster",
	"metrics", "profiler", "scaler", "runtime", "other",
}

// moduleOf maps a fully qualified function name to its module:
// dilu/internal/sim.(*RNG).Exp → sim, runtime.memmove → runtime,
// math/rand.(*Rand).Int63 → other.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "dilu/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if slices.Contains(profModules, pkg) {
			return pkg
		}
		return "other"
	}
	for _, prefix := range []string{"runtime.", "runtime/internal/", "internal/runtime/"} {
		if strings.HasPrefix(fn, prefix) {
			return "runtime"
		}
	}
	return "other"
}

// moduleShares reads a gzipped pprof CPU profile and returns each
// module's share of the samples (all zero for a profile too short to
// hold one). A sample is charged to the module of its
// leaf frame, inlined functions included; when the leaf is a library
// frame (math, slices, math/rand, ...) the walk continues toward the
// caller, so math.Exp called from gpu.EffInv counts as gpu. A sample
// with no simulator or runtime frame at all counts as other.
func moduleShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range prof.samples {
		if len(s.locations) == 0 || len(s.values) == 0 {
			continue
		}
		counts[prof.module(s.locations)] += s.values[0]
		total += s.values[0]
	}
	shares := make(map[string]float64, len(profModules))
	for _, m := range profModules {
		if total > 0 {
			shares[m] = float64(counts[m]) / float64(total)
		}
	}
	return shares, nil
}

// profile is the subset of profile.proto the module roll-up needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]uint64   // function id → name index into strings
	strings   []string
}

// module returns the module a stack is charged to: that of its innermost
// frame outside "other".
func (p *profile) module(stack []uint64) string {
	for _, loc := range stack {
		for _, fn := range p.locations[loc] {
			name, ok := p.functions[fn]
			if !ok || name >= uint64(len(p.strings)) {
				continue
			}
			if m := moduleOf(p.strings[name]); m != "other" {
				return m
			}
		}
	}
	return "other"
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes the protobuf wire format of a pprof profile:
// Profile.sample = 2, Profile.location = 4, Profile.function = 5,
// Profile.string_table = 6; everything else is skipped.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locations = appendPacked(s.locations, v, m)
				case 2:
					for _, x := range appendPacked(nil, v, m) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			// Location.line runs from the innermost inlined function out
			// to the caller it was inlined into.
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated integer field that arrived either as one
// varint (v) or as a packed run (msg).
func appendPacked(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := varint(msg)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

var errWire = errors.New("malformed protobuf")

// eachField calls fn for every field of a protobuf message: varints with
// their value, length-delimited fields with their bytes (non-nil), and
// fixed-width fields with their little-endian value.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errWire
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errWire
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errWire
			}
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[size:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errWire
			}
			msg = b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("%w: wire type %d", errWire, wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning its length in bytes, or
// 0 if b ends mid-varint.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
