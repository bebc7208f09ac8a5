package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the layers whose share of CPU-profile samples the
// traced run reports, each as "<layer>.cpu_pct". A sample belongs to
// the layer of its leaf frame's package; "other" takes the rest, so the
// shares sum to 100.
var cpuLayers = []string{
	"smcore", "warp", "isa", "sched", "core",
	"mem", "mem.cache", "mem.icnt", "mem.dram", "gpu",
	"go-runtime", "workloads", "runner", "tenancy",
	"fleet", "server", "http-json", "other",
}

// layerOf maps a Go package path to its layer name.
func layerOf(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "go-runtime"
	case strings.HasPrefix(pkg, "gpushare/internal/"):
		l := strings.ReplaceAll(strings.TrimPrefix(pkg, "gpushare/internal/"), "/", ".")
		for _, known := range cpuLayers {
			if l == known {
				return l
			}
		}
		return "other"
	case pkg == "encoding/json" || pkg == "net" || pkg == "bufio" ||
		strings.HasPrefix(pkg, "net/"):
		return "http-json"
	}
	return "other"
}

// packageOf extracts the package path from a fully qualified Go symbol
// such as "gpushare/internal/mem/dram.(*Channel).Tick".
func packageOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// profiler captures a CPU profile of this process into memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the sample count per layer.
func (p *profiler) stop() (map[string]int64, error) {
	pprof.StopCPUProfile()
	return foldProfile(p.buf.Bytes())
}

// cpuShares converts per-layer sample counts to percentages.
func cpuShares(byLayer map[string]int64, m map[string]float64) {
	var total int64
	for _, n := range byLayer {
		total += n
	}
	for _, l := range cpuLayers {
		m[l+".cpu_pct"] = 100 * ratio(float64(byLayer[l]), float64(total))
	}
}

// foldProfile decodes a gzipped pprof profile (profile.proto) and sums
// each sample's first value by the layer of its leaf frame. It reads
// only the fields it needs: samples, locations, functions, strings.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]int64{}  // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			haveLeaf, haveVal := false, false
			err := eachField(b, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1: // location_id, packed or not
					ids, err := varints(v, bb)
					if err != nil {
						return err
					}
					if !haveLeaf && len(ids) > 0 {
						s.leaf, haveLeaf = ids[0], true
					}
				case 2: // value
					vals, err := varints(v, bb)
					if err != nil {
						return err
					}
					if !haveVal && len(vals) > 0 {
						s.value, haveVal = int64(vals[0]), true
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			haveFn := false
			err := eachField(b, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line: the first one is the innermost inlined frame
					if haveFn {
						return nil
					}
					return eachField(bb, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fn, haveFn = lv, true
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
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
		idx := fnName[locFn[s.leaf]]
		name := ""
		if idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[layerOf(packageOf(name))] += s.value
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values: the single value
// when it was encoded unpacked (data nil), else the packed list.
func varints(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
