package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// profileHz is the CPU profile sampling rate. Linux delivers profiling
// signals at most once per kernel tick, which is 250 Hz on common
// configurations; asking for more only mislabels the samples' weight.
const profileHz = 250

// profileWall is how much System.Run time a traced run profiles, for
// about a thousand samples: three repetitions of array-skew or tpcc-rw,
// one of vecdb-scan.
const profileWall = 3 * time.Second

// stack is one CPU profile sample: function names leaf first (inlined
// frames expanded), and the sample's value.
type stack struct {
	frames []string
	value  int64
}

// Fold buckets that are not repo modules.
const (
	foldSwitch = "goruntime.switch" // runtime scheduling: park/ready, channels, locks, idle Ps
	foldGC     = "goruntime.gc"     // garbage collection and allocation
	foldBench  = "simbench"         // this benchmark's own code (span wrappers)
	foldOther  = "unattributed"     // stdlib leaves with no repo caller, unknown packages
)

// foldByModule attributes every sample to one bucket and returns the
// bucket totals and the total value:
//
//   - a repro/internal/<pkg> leaf counts to <pkg>;
//   - a runtime leaf under a GC or allocation frame counts to goruntime.gc;
//   - a non-runtime stdlib leaf, and a runtime data helper (memmove, map
//     access, hashing, clock reads), counts to its nearest caller that is
//     neither, so encoding/binary under vecdb.Search counts to vecdb, and
//     memmove under runtime.chansend counts to goruntime.switch;
//   - any other runtime leaf counts to goruntime.switch.
func foldByModule(samples []stack) (map[string]int64, int64) {
	out := map[string]int64{}
	var total int64
	for _, s := range samples {
		out[attribute(s.frames)] += s.value
		total += s.value
	}
	return out, total
}

func attribute(frames []string) string {
	if len(frames) == 0 {
		return foldOther
	}
	for _, f := range frames {
		if !isRuntime(packageOf(f)) {
			break
		}
		if isGCFrame(f) {
			return foldGC
		}
	}
	for _, f := range frames {
		pkg := packageOf(f)
		switch {
		case strings.HasPrefix(pkg, "repro/internal/"):
			mod := strings.TrimPrefix(pkg, "repro/internal/")
			if i := strings.IndexByte(mod, '/'); i >= 0 {
				mod = mod[:i]
			}
			return mod
		case pkg == "main" || strings.HasPrefix(pkg, "repro/simbench"):
			return foldBench
		case isRuntime(pkg) && !isDataHelper(f, pkg):
			return foldSwitch
		}
	}
	if isRuntime(packageOf(frames[0])) {
		return foldSwitch
	}
	return foldOther
}

// packageOf returns the import path of a profile function name such as
// "repro/internal/sim.(*Queue[...]).Push" or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if slash < 0 {
		slash = 0
	}
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

var gcPrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap", "runtime.convT",
	"runtime.concatstring", "runtime.rawstring", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*mheap)",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mspan)",
	"runtime.(*sweepLocked)", "runtime.(*scavengerState)", "runtime._GC",
}

func isGCFrame(fn string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

var helperPrefixes = []string{
	"runtime.memmove", "runtime.memclr", "runtime.memequal", "runtime.mapaccess",
	"runtime.mapassign", "runtime.mapdelete", "runtime.mapiter", "runtime.aeshash",
	"runtime.memhash", "runtime.strhash", "runtime.nanotime", "runtime.walltime",
	"runtime.vdso", "runtime.cmpstring", "runtime.efaceeq", "runtime.ifaceeq",
	"runtime.duffcopy", "runtime.duffzero", "runtime.typeAssert", "runtime.assertE2I",
	"runtime.assertI2I", "runtime.getitab", "runtime.deferreturn", "runtime.deferproc",
	"runtime.panicIndex", "runtime.panicBounds",
}

// isDataHelper reports whether a runtime frame does its caller's data work
// (copying, map access, hashing, reading the clock) rather than scheduling.
func isDataHelper(fn, pkg string) bool {
	if strings.HasPrefix(pkg, "internal/runtime/maps") {
		return true
	}
	for _, p := range helperPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// parseProfile decodes a gzipped pprof protobuf CPU profile into stacks.
// Only the fields the fold needs are read: samples, locations with their
// (inlined) lines, functions and the string table.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, u := range appendVarints(nil, w, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stack{value: s.vals[len(s.vals)-1]}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				name := "?"
				if n, ok := funcs[fid]; ok && n >= 0 && n < int64(len(strs)) {
					name = strs[n]
				}
				st.frames = append(st.frames, name)
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the top-level fields of one protobuf message, calling f
// with the varint value (wire types 0, 1, 5) or the bytes (wire type 2).
func eachField(b []byte, f func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
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
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
