package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// Host-time attribution. A layer is a package under bcl/internal (the
// simulation kernel split into process handoff and event-queue work),
// plus the Go runtime split three ways and the harness itself. Every
// CPU or allocation sample goes to exactly one layer: the first frame,
// walking from the leaf towards the root, that belongs to this
// repository decides. Attribution is flat, never cumulative — wrappers
// such as Tracer.DoFlow run their callee inside themselves, so a
// cumulative figure charges them with the whole stack below.
var hostLayers = []string{
	"sim.handoff", "sim.events",
	"runtime.sched", "runtime.gc", "runtime.other",
	"fabric", "nic", "oskernel", "bcl", "mem", "node", "eadi", "mpi", "svc",
	"obs", "trace", "workloads", "harness",
}

// pkgLayer maps a package directly under bcl/internal to its layer.
// cluster and hw only assemble and parameterize nodes; packages no
// workload runs (comparators, pvm, jiajia, sched) fall to the harness.
var pkgLayer = map[string]string{
	"fabric": "fabric", "nic": "nic", "oskernel": "oskernel", "bcl": "bcl",
	"mem": "mem", "node": "node", "cluster": "node", "hw": "node",
	"eadi": "eadi", "mpi": "mpi", "svc": "svc", "obs": "obs",
	"trace": "trace", "workloads": "workloads",
}

// handoffSyms are the sim functions that exist to pass the CPU between
// the scheduler and a process goroutine; runtime frames below them are
// channel operations and the goroutine switches they cause.
var handoffSyms = []string{"(*Proc).park", "(*Proc).run", "(*Env).wake", "(*Env).GoAt.func"}

// layerOf classifies one stack of function names, leaf first.
func layerOf(frames []string) string {
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "bcl/internal/"):
			rest := f[len("bcl/internal/"):]
			pkg := rest[:strings.IndexAny(rest, "/.")]
			if pkg != "sim" {
				if l, ok := pkgLayer[pkg]; ok {
					return l
				}
				return "harness"
			}
			for _, s := range handoffSyms {
				if strings.HasPrefix(rest, "sim."+s) {
					return "sim.handoff"
				}
			}
			return "sim.events"
		case strings.HasPrefix(f, "bcl."):
			return "bcl"
		case strings.HasPrefix(f, "main."), strings.HasPrefix(f, "bcl/benchmark."), // the latter under go test
			strings.HasPrefix(f, "runtime/pprof."):
			return "harness"
		}
	}
	// No repository frame: the scheduler on g0, a GC worker, or other
	// runtime housekeeping.
	for _, f := range frames {
		for _, s := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
			"runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.(*gcWork)"} {
			if strings.HasPrefix(f, s) {
				return "runtime.gc"
			}
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.mcall", "runtime.park_m", "runtime.schedule", "runtime.findRunnable",
			"runtime.goexit0", "runtime.gosched_m", "runtime.mstart", "runtime.stopm", "runtime.startm":
			return "runtime.sched"
		}
	}
	return "runtime.other"
}

// ------------------------------------------------------- CPU profiles

// stack is one profile sample: function names leaf first and a weight.
type stack struct {
	frames []string
	weight int64
}

// cpuStacks decodes a gzip-compressed pprof CPU profile (the protobuf
// pprof.StartCPUProfile writes) into stacks weighted by CPU
// nanoseconds. Only the fields attribution needs are read.
func cpuStacks(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	err = pbFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			if err := pbFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = pbUints(s.locs, v, d)
				case 2:
					s.values = pbUints(s.values, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := pbFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return pbFields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			if err := pbFields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{weight: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields walks the fields of one protobuf message. Varint fields
// arrive in v, length-delimited ones in data; fixed-width fields are
// skipped.
func pbFields(b []byte, visit func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
		if err := visit(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (v uint64, n int) {
	for shift := uint(0); n < len(b) && shift < 64; shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n
		}
	}
	return 0, 0
}

// pbUints appends one repeated-scalar field occurrence: a packed run
// when data is set, else the single varint v.
func pbUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// cpuByLayer folds a CPU profile into nanoseconds per layer.
func cpuByLayer(gz []byte, into map[string]float64) error {
	stacks, err := cpuStacks(gz)
	for _, s := range stacks {
		into[layerOf(s.frames)] += float64(s.weight)
	}
	return err
}

// ------------------------------------------------- allocation profiles

// allocsByLayer reads the runtime's allocation profile: objects
// allocated so far per layer. With runtime.MemProfileRate = 1 every
// allocation is recorded, so the difference of two readings is exact.
func allocsByLayer() map[string]float64 {
	runtime.GC() // publish the allocations of the cycle in progress
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		// Slack for records that appear between the two calls.
		recs = make([]runtime.MemProfileRecord, n+64)
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
		}
	}
	out := make(map[string]float64)
	var names []string
	for _, r := range recs {
		names = names[:0]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			names = append(names, f.Function)
			if !more {
				break
			}
		}
		out[layerOf(names)] += float64(r.AllocObjects)
	}
	return out
}
