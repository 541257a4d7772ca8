// Command simbench measures the simulator's own host cost on three
// workloads cut from the paper's experiments.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash simbench/run.sh --workload <array-skew|tpcc-rw|vecdb-scan> --seed <n> --seconds <s> --trace <0|1>
//
// and for every workload in turn:
//
//	for w in array-skew tpcc-rw vecdb-scan; do bash simbench/run.sh --workload $w --seed 1 --seconds 15 --trace 0; done
//
// A run repeats one batch simulation — set-up from nothing, System.Run,
// then checks — until --seconds have passed, and reports medians over the
// repetitions. --seed seeds the simulated load generator; the apps only
// see the requests it draws. With --trace 0 the last line of output is a
// JSON object with the end-to-end metrics: wall_s and setup_s, the host
// seconds of System.Run and of set-up scaled to a reference host speed
// (see ref.go), and live_heap_mb. With --trace 1 the run then makes
// CPU-profiled repetitions and one span-traced repetition and reports the
// per-layer metrics instead; its untraced repetitions stop at --seconds,
// without the workload's minimum count, so that it ends in time. Every
// check that fails is printed as a "FAILED check:" line and counted in the
// JSON's failed field; the share of repetitions with a failure is
// fail_frac.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
)

// A simulation runs one goroutine at a time, so the benchmark runs it on
// one P: a second P only adds cross-P wake-ups and an idle P spinning
// beside the simulation, and on a 2-core host it made the measurement
// noisier. adios-bench -parallel gives each concurrent simulation about
// one core as well.
const gomaxprocs = 1

func main() {
	wlName := flag.String("workload", "", "workload name: array-skew, tpcc-rw or vecdb-scan")
	seed := flag.Int64("seed", defaultSeed, "load-generator seed")
	seconds := flag.Float64("seconds", 10, "host seconds to keep repeating the simulation")
	traceOn := flag.Int("trace", 0, "1 adds CPU-profiled and span-traced repetitions and reports per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "simbench"), "directory for the span file of a traced run")
	flag.Parse()
	def, err := findWorkload(*wlName)
	if err != nil || (*traceOn != 0 && *traceOn != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "simbench: bad arguments (%v)\n", err)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	printHeader(def, *seed)

	b := &bench{def: def, seed: *seed}
	start := time.Now()
	minReps := def.minReps
	if *traceOn == 1 {
		minReps = 1
	}
	for len(b.reps) < minReps || time.Since(start).Seconds() < *seconds {
		r := b.rep(nil, nil)
		b.reps = append(b.reps, r)
		printRep(len(b.reps), r)
	}
	b.untraced = len(b.reps)
	out := result{Metrics: map[string]metric{}}
	if *traceOn == 1 {
		b.traced(&out, *outDir)
	} else {
		b.endToEnd(&out)
	}
	out.Attempted = len(b.reps)
	out.Failed = b.failed()
	out.Correct = out.Failed == 0
	for _, r := range b.reps {
		for _, f := range r.failures {
			fmt.Printf("FAILED check: %s\n", f)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printHeader(def *workloadDef, seed int64) {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	fmt.Printf("# simbench %s: go=%s GOMAXPROCS=%d nproc=%d commit=%s%s seed=%d\n",
		def.name, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit, dirty, seed)
	fmt.Printf("# mode=%s open-loop Poisson %.0f RPS, window %.1f ms warmup + %.1f ms measured (+50 ms drain)\n",
		def.mode, def.rps, def.warmup.Millis(), def.measure.Millis())
}

// repResult is one repetition: set-up, System.Run and checks.
type repResult struct {
	setup    phases
	wall     time.Duration
	liveHeap uint64 // heap live after the run and a GC, less the heap live before set-up
	// refSetup and refRun are the reference kernel's mean time around
	// set-up and around System.Run (see ref.go).
	refSetup, refRun time.Duration
	// load is the window's expected request count over the count the
	// generator drew (see scaledWall).
	load     float64
	mallocs  uint64
	bytes    uint64
	dig      digest
	c        counters
	failures []string
}

type bench struct {
	def  *workloadDef
	seed int64
	reps []repResult
	// untraced counts the leading repetitions made without a profile or
	// spans; the end-to-end medians are over these alone.
	untraced int
}

// rep builds, runs and checks one simulation. A non-nil prof receives
// the CPU profile of System.Run; a non-nil tr records spans around every
// set-up call and every call into the app.
func (b *bench) rep(tr *tracer, prof *bytes.Buffer) (r repResult) {
	defer func() {
		if p := recover(); p != nil {
			r.failures = append(r.failures, fmt.Sprintf("panic: %v", p))
		}
	}()
	// Set-up starts from nothing, as in a new process: the heap the last
	// repetition freed goes back to the OS first, so every set-up pays for
	// fresh pages. Left to the background scavenger, some repetitions got
	// the pages back and others did not, and array-skew's set-up time
	// swung between 18 and 25 ms from run to run.
	debug.FreeOSMemory()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	refA := hostRef()
	r.setup.tr = tr
	in := b.def.build(b.seed, &r.setup)
	app := in.app
	if tr != nil {
		app = tr.wrap(app)
	}
	r.setup.do(phaseStart, func() { in.sys.StartApp(app) })

	refB := hostRef()
	r.refSetup = (refA + refB) / 2

	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if prof != nil {
		// Setting the rate first overrides pprof's 100 Hz default; the
		// runtime then prints a harmless warning on stderr.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(prof); err != nil {
			r.failures = append(r.failures, "cpu profile: "+err.Error())
		}
	}
	t0 := time.Now()
	res := in.sys.Run(app, b.def.rps, b.def.warmup, b.def.measure)
	r.wall = time.Since(t0)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	r.refRun = (refB + hostRef()) / 2
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&m2)
	// Heap the benchmark itself holds across repetitions (the tracer, the
	// vecdb search oracle) was already live before set-up.
	r.liveHeap = m2.HeapAlloc - base.HeapAlloc
	runtime.KeepAlive(in)

	r.c = readCounters(in.sys, res)
	r.dig = makeDigest(in.sys, res)
	r.load = b.def.rps * (b.def.warmup + b.def.measure).Seconds() / float64(max(r.dig.Sent, 1))
	r.failures = append(r.failures, b.check(in, res, r.dig)...)
	runtime.GC() // the simulation is garbage now
	return r
}

// check runs every correctness check on a finished simulation, outside
// the timed region, and names each one that failed.
func (b *bench) check(in instance, res core.RunResult, d digest) []string {
	var bad []string
	for _, err := range in.sys.Audit(res, b.def.strict) {
		bad = append(bad, "audit: "+err.Error())
	}
	if err := in.check(); err != nil {
		bad = append(bad, "app: "+err.Error())
	}
	if want, ok := pinnedDigests[b.def.name][b.seed]; ok && d.String() != want {
		bad = append(bad, fmt.Sprintf("digest: %s, pinned %s", d, want))
	}
	if len(b.reps) > 0 && d != b.reps[0].dig {
		bad = append(bad, fmt.Sprintf("digest: %s differs from the run's first repetition %s", d, b.reps[0].dig))
	}
	return bad
}

// scaledWall and scaledSetup are r's System.Run and set-up times
// converted to the reference host's speed. The System.Run time is also
// scaled to the window's expected request count: the seed moves the count
// the Poisson generator draws by a few percent (vecdb-scan: 701 to 770
// queries where 750 are expected), and the host time with it.
func (r repResult) scaledWall() float64 { return scale(r.wall, r.refRun) * r.load }

func (r repResult) scaledSetup() float64 { return scale(r.setup.total(), r.refSetup) }

func scale(d, ref time.Duration) float64 {
	return d.Seconds() * float64(refNominal) / float64(ref)
}

func printRep(i int, r repResult) {
	fmt.Printf("rep %d: wall %.3f s, setup %.3f s (system %.3f app %.3f warm %.3f start %.3f), reference %.1f/%.1f ms, live heap %.1f MB, digest %s\n",
		i, r.wall.Seconds(), r.setup.total().Seconds(),
		r.setup.d[phaseSystem].Seconds(), r.setup.d[phaseApp].Seconds(),
		r.setup.d[phaseWarm].Seconds(), r.setup.d[phaseStart].Seconds(),
		float64(r.refSetup)/1e6, float64(r.refRun)/1e6, float64(r.liveHeap)/1e6, r.dig)
}

// endToEnd fills the untraced metrics: medians over the repetitions,
// times scaled to the reference host (see ref.go).
func (b *bench) endToEnd(out *result) {
	set := func(name, unit string, f func(repResult) float64) {
		v := b.values(f)
		m := median(v)
		out.Metrics[name] = metric{Value: m, Unit: unit}
		fmt.Printf("%-14s %14.6f %-2s (median of %d repetitions, min %.6f, max %.6f)\n",
			name, m, unit, len(v), slices.Min(v), slices.Max(v))
	}
	set("wall_s", "s", repResult.scaledWall)
	set("setup_s", "s", repResult.scaledSetup)
	set("live_heap_mb", "MB", func(r repResult) float64 { return float64(r.liveHeap) / 1e6 })
	fmt.Printf("%-14s %14.6f %-2s (%d of %d repetitions failed a check)\n",
		"fail_frac", float64(b.failed())/float64(len(b.reps)), "", b.failed(), len(b.reps))
	fmt.Printf("raw wall %.6f s and setup %.6f s, reference %.3f ms around System.Run and %.3f ms around set-up, load %.4f (medians; wall_s = raw x %.0f ms / reference x load)\n",
		b.median(func(r repResult) float64 { return r.wall.Seconds() }),
		b.median(func(r repResult) float64 { return r.setup.total().Seconds() }),
		b.median(func(r repResult) float64 { return float64(r.refRun) / 1e6 }),
		b.median(func(r repResult) float64 { return float64(r.refSetup) / 1e6 }),
		b.median(func(r repResult) float64 { return r.load }),
		float64(refNominal)/1e6)
}

// failed counts the repetitions that failed a check.
func (b *bench) failed() int {
	n := 0
	for _, r := range b.reps {
		if len(r.failures) > 0 {
			n++
		}
	}
	return n
}

// values is f over the untraced repetitions.
func (b *bench) values(f func(repResult) float64) []float64 {
	v := make([]float64, b.untraced)
	for i, r := range b.reps[:b.untraced] {
		v[i] = f(r)
	}
	return v
}

// median is the median of f over the untraced repetitions.
func (b *bench) median(f func(repResult) float64) float64 { return median(b.values(f)) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
