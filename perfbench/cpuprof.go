package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// cpuShares profiles the CPU while System.Run executes and attributes
// each sample to the package of its leaf function.
type cpuShares struct {
	buf     bytes.Buffer
	on      bool
	samples map[string]int64
	total   int64
	err     error
}

func (c *cpuShares) start() {
	c.buf.Reset()
	c.on = pprof.StartCPUProfile(&c.buf) == nil
}

func (c *cpuShares) stop() {
	if !c.on {
		return
	}
	pprof.StopCPUProfile()
	c.on = false
	leaves, err := profileLeaves(c.buf.Bytes())
	if err != nil {
		c.err = err
		return
	}
	if c.samples == nil {
		c.samples = map[string]int64{}
	}
	for fn, n := range leaves {
		c.samples[leafClass(fn)] += n
		c.total += n
	}
}

// report writes cpu.samples and the cpu.<class> shares.
func (c *cpuShares) report(m map[string]float64) {
	if c.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading the CPU profile:", c.err)
	}
	m["cpu.samples"] = float64(c.total)
	for _, class := range []string{"sim", "core", "mem", "network", "program", "runtime", "other"} {
		if c.total > 0 {
			m["cpu."+class] = float64(c.samples[class]) / float64(c.total)
		}
	}
}

// leafClass maps a function name to the layer its package belongs to.
func leafClass(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "nova/internal/sim":
		return "sim"
	case pkg == "nova/internal/core":
		return "core"
	case pkg == "nova/internal/mem":
		return "mem"
	case pkg == "nova/internal/network":
		return "network"
	case pkg == "nova/program":
		return "program"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// profileLeaves decodes a gzipped pprof profile (profile.proto) just far
// enough to count samples by leaf function name: the first line of each
// sample's first location is the innermost, possibly inlined, frame.
func profileLeaves(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc   uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id, packed or not
					ids, err := varints(v, b)
					if len(ids) > 0 && first {
						s.loc, first = ids[0], false
					}
					return err
				case 2: // value: [samples, nanoseconds]
					vals, err := varints(v, b)
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost frame
					if haveLine {
						return nil
					}
					haveLine = true
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if i := funcName[locFunc[s.loc]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[name] += s.count
	}
	return out, nil
}

var errProto = errors.New("malformed profile")

// protoFields walks one protobuf message, calling f with each field's
// number and either its varint value (v) or its bytes (b).
func protoFields(buf []byte, f func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := f(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values: the single value v
// when unpacked (b == nil), else the packed varints in b.
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
