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

// layers are the simulator's modules, named after their packages under
// nomad/internal, plus runtime for samples with no model frame.
var layers = []string{"sim", "cpu", "cache", "tlb", "dram", "core", "osmem", "schemes", "workload", "metrics", "system", "runtime"}

// foldProfile attributes every sample of a gzipped pprof CPU profile to one
// layer: the innermost frame of a nomad/internal/<layer> package on its
// stack, inlined frames included. Runtime, map-iteration and allocation
// frames therefore go to the layer that called them, and so do the helper
// packages that are not layers (mem, replacement, check). A stack with no
// layer frame goes to runtime. It returns sample counts by layer and their
// total.
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	isLayer := map[string]bool{}
	for _, l := range layers[:len(layers)-1] { // every layer but runtime
		isLayer[l] = true
	}
	layerOfFunc := map[uint64]string{}
	for id, nameIdx := range p.funcName {
		if nameIdx < 0 || int(nameIdx) >= len(p.strings) {
			return nil, 0, fmt.Errorf("profile: function %d names string %d of %d", id, nameIdx, len(p.strings))
		}
		name := p.strings[nameIdx]
		if rest, ok := strings.CutPrefix(name, "nomad/internal/"); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			if isLayer[pkg] {
				layerOfFunc[id] = pkg
			}
		}
	}
	counts := map[string]int64{}
	for _, l := range layers {
		counts[l] = 0
	}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			return nil, 0, errors.New("profile: sample without values")
		}
		layer := "runtime"
	stack:
		for _, loc := range s.locations {
			fns, ok := p.locFuncs[loc]
			if !ok {
				return nil, 0, fmt.Errorf("profile: sample names unknown location %d", loc)
			}
			for _, fn := range fns {
				if l, ok := layerOfFunc[fn]; ok {
					layer = l
					break stack
				}
			}
		}
		counts[layer] += s.values[0]
		total += s.values[0]
	}
	return counts, total, nil
}

// profile holds the parts of a decoded perftools.profiles.Profile message
// the fold needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string-table index
	strings  []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes the protobuf wire format of profile.proto: Profile
// fields sample (2), location (4), function (5) and string_table (6);
// Sample's location_id (1) and value (2); Location's id (1) and line (4);
// Line's function_id (1); Function's id (1) and name (2).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locations, v, m)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, m); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
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
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// eachField walks one message's fields. fn gets the field number and either
// the varint value (wire type 0) or the payload (wire type 2); fixed-width
// fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
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
			if err := fn(field, v, nil); err != nil {
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
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, msg); err != nil {
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

// appendPacked appends a repeated varint field given either unpacked (v,
// msg == nil) or packed (msg holds the varints).
func appendPacked(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}
