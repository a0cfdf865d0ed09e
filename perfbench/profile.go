package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the CPU profile runtime/pprof writes (a gzipped
// protobuf, profile.proto) far enough to walk each sample's stack, and
// charges every sample to a layer.

// stack is one sample: its weight and its frames, innermost first, with
// inlined calls expanded.
type stack struct {
	weight int64
	frames []string
}

var errProto = errors.New("malformed profile")

type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field returns the next field's number, wire type, varint value (types 0,
// 1, 5) and payload (type 2).
func (r *protoReader) field() (num int, typ int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, typ = int(key>>3), int(key&7)
	switch typ {
	case 0:
		v, err = r.varint()
	case 1, 5:
		n := 8
		if typ == 5 {
			n = 4
		}
		if len(r.b) < n {
			return 0, 0, 0, nil, errProto
		}
		for i := n - 1; i >= 0; i-- {
			v = v<<8 | uint64(r.b[i])
		}
		r.b = r.b[n:]
	case 2:
		var n uint64
		if n, err = r.varint(); err != nil {
			return
		}
		if uint64(len(r.b)) < n {
			return 0, 0, 0, nil, errProto
		}
		payload, r.b = r.b[:n], r.b[n:]
	default:
		err = fmt.Errorf("%w: wire type %d", errProto, typ)
	}
	return
}

// uints decodes a repeated integer field, packed or not.
func uints(typ int, v uint64, payload []byte) ([]uint64, error) {
	if typ == 0 {
		return []uint64{v}, nil
	}
	r := protoReader{payload}
	var out []uint64
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

// parseProfile decodes a gzipped CPU profile into stacks weighted by their
// sample count.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	r := protoReader{raw}
	for len(r.b) > 0 {
		num, _, _, payload, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s sample
			sr := protoReader{payload}
			for len(sr.b) > 0 {
				n, t, x, p, err := sr.field()
				if err != nil {
					return nil, err
				}
				vals, err := uints(t, x, p)
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs = append(s.locs, vals...)
				case 2:
					if s.weight == 0 && len(vals) > 0 {
						s.weight = int64(vals[0]) // samples/count is the first value
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			lr := protoReader{payload}
			for len(lr.b) > 0 {
				n, _, x, p, err := lr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 4: // Line
					ln := protoReader{p}
					for len(ln.b) > 0 {
						m, _, y, _, err := ln.field()
						if err != nil {
							return nil, err
						}
						if m == 1 {
							fns = append(fns, y)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			fr := protoReader{payload}
			for len(fr.b) > 0 {
				n, _, x, _, err := fr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 2:
					name = int64(x)
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{weight: s.weight}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

const spritePrefix = "sprite/internal/"

// handoffFrames are the runtime's goroutine park, wake and channel frames:
// under the sim package, or with no sprite frame at all, they are the cost
// of handing control between simulated activities, the only goroutine
// switches this single-process harness makes.
var handoffFrames = []string{
	"runtime.chanrecv", "runtime.chansend", "runtime.selectgo", "runtime.gopark",
	"runtime.goready", "runtime.park_m", "runtime.schedule", "runtime.findRunnable",
	"runtime.mcall", "runtime.ready", "runtime.execute", "runtime.gogo",
	"runtime.runqget", "runtime.runqput", "runtime.wakep", "runtime.notewakeup",
	"runtime.futex", "runtime.stopm", "runtime.startm", "runtime.goexit0",
	"runtime.newproc",
}

func isHandoff(frame string) bool {
	for _, h := range handoffFrames {
		if strings.HasPrefix(frame, h) {
			return true
		}
	}
	return false
}

// layerOfPackage maps a sprite/internal package to the layer it reports as.
func layerOfPackage(pkg string) string {
	switch pkg {
	case "sim", "netsim", "rpc", "fs", "vm", "core", "hostsel", "recovery",
		"fleet", "fault", "metrics", "pmake":
		return pkg
	case "checkpoint":
		return "recovery"
	case "stats":
		return "metrics" // the metrics plane's quantile sketches
	default:
		return "other"
	}
}

// attribute charges one stack to a layer:
//   - anything under the harness's episode construction is setup, and
//     anything under Cluster.MetricsSnapshot is metrics;
//   - otherwise the innermost sprite/internal frame names the layer, so
//     runtime work (allocation, write barriers, channel operations) is
//     charged to the layer that called it, and runtime handoff frames under
//     a sim frame are split out as handoff;
//   - a stack with no sprite frame is handoff if it is the scheduler, the
//     harness (bench) if a main frame is on it, and the runtime (rt: GC,
//     background sweeping, allocation slow paths) otherwise.
func attribute(frames []string) string {
	for _, f := range frames {
		// The closures a build function defines are the programs the
		// simulation runs later; only the function's own frame marks setup.
		if strings.HasPrefix(f, "main.build") && !strings.Contains(f, ".func") {
			return "setup"
		}
		if strings.HasPrefix(f, spritePrefix+"core.(*Cluster).MetricsSnapshot") {
			return "metrics"
		}
	}
	handoff := false
	for _, f := range frames {
		if strings.HasPrefix(f, spritePrefix) {
			rest := f[len(spritePrefix):]
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			layer := layerOfPackage(pkg)
			if layer == "sim" && handoff {
				return "handoff"
			}
			return layer
		}
		if isHandoff(f) {
			handoff = true
		}
	}
	if handoff {
		return "handoff"
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "rt"
}

// computeFrame marks a stack inside the CPU quantum model.
const computeFrame = spritePrefix + "sim.(*CPU).Compute"

// layerShares returns each layer's share of the samples, plus the inclusive
// share of samples under sim.(*CPU).Compute.
func layerShares(stacks []stack) (shares map[string]float64, compute float64, total int64) {
	weights := map[string]int64{}
	var inCompute int64
	for _, s := range stacks {
		total += s.weight
		weights[attribute(s.frames)] += s.weight
		for _, f := range s.frames {
			if f == computeFrame {
				inCompute += s.weight
				break
			}
		}
	}
	shares = map[string]float64{}
	for _, l := range traceLayers {
		shares[l] = 0
	}
	if total == 0 {
		return shares, 0, 0
	}
	for l, w := range weights {
		shares[l] = float64(w) / float64(total)
	}
	return shares, float64(inCompute) / float64(total), total
}

// traceLayers are the layers a profile sample can be charged to.
var traceLayers = []string{
	"sim", "handoff", "netsim", "rpc", "fs", "vm", "core", "hostsel", "recovery",
	"fleet", "fault", "metrics", "pmake", "setup", "rt", "bench", "other",
}
