package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// pb is a minimal protobuf encoder for building canned profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	p.bytes(field, body)
}

// cannedProfile encodes a CPU profile whose samples are the given stacks
// (leaf first). A stack element "a+b" is one location with b inlined
// into a, the way the compiler reports inlined calls. Each sample gets a
// count and a cpu-ns value, and the fold must use the last one.
func cannedProfile(t *testing.T, stacks [][]string, values []int64) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var prof pb
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pb
		vt.varint(1, str(st[0]))
		vt.varint(2, str(st[1]))
		prof.bytes(1, vt.b)
	}
	funcID := map[string]uint64{}
	var funcs pb
	fn := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		var f pb
		f.varint(1, id)
		f.varint(2, str(name))
		funcs.bytes(5, f.b)
		return id
	}
	locID := map[string]uint64{}
	var locs pb
	for i, st := range stacks {
		var ids []uint64
		for _, frame := range st {
			id, ok := locID[frame]
			if !ok {
				id = uint64(len(locID) + 1)
				locID[frame] = id
				var l pb
				l.varint(1, id)
				for _, name := range bytes.Split([]byte(frame), []byte("+")) {
					var line pb
					line.varint(1, fn(string(name)))
					l.bytes(4, line.b)
				}
				locs.bytes(4, l.b)
			}
			ids = append(ids, id)
		}
		var s pb
		s.packed(1, ids...)
		s.packed(2, uint64(values[i]/4_000_000), uint64(values[i]))
		prof.bytes(2, s.b)
	}
	prof.b = append(prof.b, locs.b...)
	prof.b = append(prof.b, funcs.b...)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestFoldCannedProfile(t *testing.T) {
	stacks := [][]string{
		// repo leaf: its own module
		{"repro/internal/sim.(*Env).Run"},
		// generic instantiation with a slash inside the brackets
		{"repro/internal/sim.(*Queue[go.shape.*repro/internal/sched.workItem]).Push", "repro/internal/sched.(*Worker).run"},
		// stdlib leaf, inlined into its repo caller: the caller's module
		{"encoding/binary.littleEndian.Uint32+repro/internal/vecdb.(*Index).Search", "repro/internal/vecdb.(*Index).Handler.func1"},
		// stdlib leaf below a stdlib frame: nearest repo caller
		{"math.Float32frombits", "container/heap.Fix", "repro/internal/vecdb.(*Index).Search"},
		// runtime data helper under repo code: the caller's module
		{"runtime.memmove", "repro/internal/paging.(*Space).Load"},
		// runtime data helper under a scheduling frame: switch
		{"runtime.memmove", "runtime.chansend", "repro/internal/sim.(*Proc).park"},
		// scheduling leaf under repo code: switch
		{"runtime.futex", "runtime.chanrecv", "repro/internal/sim.(*Proc).park"},
		// allocation under repo code: gc
		{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "repro/internal/tpcc.(*DB).NewOrder"},
		// background GC worker: gc
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		// idle P looking for work: switch
		{"runtime.stealWork", "runtime.findRunnable", "runtime.schedule"},
		// the clock read of a span wrapper: the benchmark's own bucket
		{"runtime.nanotime1", "time.Since", "main.(*tracer).now"},
		// stdlib with no repo caller: unattributed
		{"syscall.Syscall", "os.(*File).Write"},
	}
	values := []int64{40, 4, 8, 4, 4, 4, 8, 4, 4, 4, 4, 8}
	for i := range values {
		values[i] *= 4_000_000 // 250 Hz sampling period, in ns
	}
	samples, err := parseProfile(cannedProfile(t, stacks, values))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[2].frames; len(got) != 3 || got[0] != "encoding/binary.littleEndian.Uint32" ||
		got[1] != "repro/internal/vecdb.(*Index).Search" {
		t.Fatalf("inlined frames not expanded innermost first: %q", got)
	}
	byMod, total := foldByModule(samples)
	want := map[string]int64{
		"sim":      44,
		"vecdb":    12,
		"paging":   4,
		foldSwitch: 16,
		foldGC:     8,
		foldBench:  4,
		foldOther:  8,
	}
	var sum int64
	for mod, n := range want {
		if got := byMod[mod]; got != n*4_000_000 {
			t.Errorf("%s: got %d samples, want %d", mod, got/4_000_000, n)
		}
		sum += n * 4_000_000
	}
	if len(byMod) != len(want) {
		t.Errorf("unexpected buckets: %v", byMod)
	}
	if total != sum {
		t.Errorf("total %d, want %d: the buckets must sum to the whole profile", total, sum)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                               "runtime",
		"repro/internal/sched.(*Worker).run.func1":       "repro/internal/sched",
		"internal/runtime/maps.(*Map).getWithKeySmall":   "internal/runtime/maps",
		"encoding/binary.littleEndian.Uint32":            "encoding/binary",
		"main.main":                                      "main",
		"repro/internal/sim.(*Queue[go.shape.int]).Push": "repro/internal/sim",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	data := cannedProfile(t, [][]string{{"runtime.futex"}}, []int64{4_000_000})
	var raw bytes.Buffer
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(raw.Bytes()[:raw.Len()-3])
	zw.Close()
	if _, err := parseProfile(z.Bytes()); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}
