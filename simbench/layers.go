package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	value      float64
	na         string // why the metric cannot be measured on this workload, if it cannot
}

// foldModules are the repo modules whose CPU share is reported; every
// other bucket of the fold lands in fold.other_share.
var foldModules = []string{
	"sim", "sched", "unithread", "paging", "rdma", "ethernet", "memnode", "loadgen",
	"migrate", "stats", "workload", "tpcc", "btree", "vecdb", "core",
}

// traced makes CPU-profiled repetitions until profileWall, then one
// span-traced repetition, after the untraced ones, and reports the
// per-layer metrics. Each must reproduce the untraced repetitions'
// simulated digest.
func (b *bench) traced(out *result, outDir string) {
	var samples []stack
	var profWall time.Duration
	var p repResult
	profiled := 0
	for ; profiled == 0 || profWall < profileWall; profiled++ {
		var prof bytes.Buffer
		p = b.rep(nil, &prof)
		st, err := parseProfile(prof.Bytes())
		if err != nil {
			p.failures = append(p.failures, err.Error())
		}
		samples = append(samples, st...)
		profWall += p.wall
		b.reps = append(b.reps, p)
		printRep(len(b.reps), p)
	}
	tr := newTracer()
	s := b.rep(tr, nil)
	b.reps = append(b.reps, s)
	printRep(len(b.reps), s)

	byMod, total := foldByModule(samples)
	share := func(mod string) float64 {
		if total == 0 {
			return 0
		}
		return float64(byMod[mod]) / float64(total)
	}
	printFold(byMod, total)

	spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.csv", b.def.name, b.seed))
	if err := tr.write(spanFile); err != nil {
		fmt.Printf("span file: %v\n", err)
	} else {
		fmt.Printf("spans: %d kept, %d past the buffer (totals below include them), written to %s\n",
			len(tr.spans), tr.dropped, spanFile)
	}
	for k := spanKind(0); k < nSpanKinds; k++ {
		t := tr.totals[k]
		if t.n > 0 {
			fmt.Printf("span %-17s n=%-9d mean %10.1f ns  self %10.1f ns\n",
				spanNames[k], t.n, tr.mean(k, false), tr.mean(k, true))
		}
	}

	// Every repetition simulates the same thing, so the profiled ones
	// share the last one's counters.
	c := p.c
	per := func(mod string, n int64) float64 { // share x wall / count, ns
		if n == 0 {
			return 0
		}
		return share(mod) * float64(profWall.Nanoseconds()) / float64(n*int64(profiled))
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	untraced := b.median(repResult.scaledWall)
	simS := c.simEnd.Seconds()
	flat := tr.totals[spStep].n > 0
	notFlat := "the goroutine tier runs this workload; its paged loads block inside the app and cannot be timed from outside"
	noMigr := "single memory node, no migrator"
	phase := func(k phase) float64 {
		return b.median(func(r repResult) float64 { return r.setup.d[k].Seconds() })
	}

	ms := []layerMetric{
		{name: "goruntime.switch_share", unit: "frac", value: share(foldSwitch)},
		{name: "goruntime.gc_share", unit: "frac", value: share(foldGC)},
		{name: "goruntime.switch_ns_per_req", unit: "ns", value: per(foldSwitch, c.completed)},
		{name: "goruntime.allocs_per_req", unit: "count", value: ratio(float64(p.mallocs), float64(c.completed))},
		{name: "goruntime.bytes_per_req", unit: "B", value: ratio(float64(p.bytes), float64(c.completed))},
		{name: "sim.host_ns_per_req", unit: "ns", value: per("sim", c.completed)},
		{name: "sim.max_pending", unit: "count", value: float64(c.maxPending)},
		{name: "sched.host_ns_per_req", unit: "ns", value: per("sched", c.completed)},
		{name: "sched.compute_calls_per_req", unit: "count", value: ratio(float64(tr.totals[spCompute].n), float64(s.c.completed))},
		{name: "sched.probe_calls_per_req", unit: "count", value: ratio(float64(tr.totals[spProbe].n), float64(s.c.completed))},
		{name: "sched.completed", unit: "count", value: float64(c.completed)},
		{name: "sched.worker_util", unit: "frac", value: ratio(float64(c.workerBusy), float64(c.workers)*float64(c.simEnd))},
		{name: "sched.busywait_frac", unit: "frac", value: ratio(float64(c.busyWaitCycles), float64(c.cpuCycles))},
		{name: "sched.dispatcher_util", unit: "frac", value: ratio(float64(c.dispCycles), float64(c.simEnd))},
		{name: "paging.host_ns_per_fault", unit: "ns", value: per("paging", c.faults)},
		{name: "paging.try_load_ns", unit: "ns", value: ratio(float64(tr.totals[spTryLoad].total+tr.totals[spTryStore].total),
			float64(tr.totals[spTryLoad].n+tr.totals[spTryStore].n)), na: unless(flat, notFlat)},
		{name: "paging.faults", unit: "count", value: float64(c.faults)},
		{name: "paging.hit_ratio", unit: "frac", value: ratio(float64(c.hits), float64(c.hits+c.faults))},
		{name: "paging.evictions", unit: "count", value: float64(c.evictions)},
		{name: "paging.writebacks", unit: "count", value: float64(c.writebacks)},
		{name: "paging.fetch_waits", unit: "count", value: float64(c.fetchWaits)},
		{name: "paging.alloc_stalls", unit: "count", value: float64(c.allocStalls)},
		{name: "vecdb.self_ns_per_req", unit: "ns", value: tr.mean(spHandler, true), na: unless(b.def.name == "vecdb-scan", "vecdb does not run in this workload")},
		{name: "tpcc.self_ns_per_req", unit: "ns", value: tr.mean(spHandler, true), na: unless(b.def.name == "tpcc-rw", "tpcc does not run in this workload")},
		{name: "workload.step_ns", unit: "ns", value: tr.mean(spStep, true), na: unless(flat, "no StepHandler runs in this workload")},
		{name: "migrate.host_ns_per_access", unit: "ns", value: per("migrate", c.hits+c.faults)},
		{name: "migrate.pages_moved", unit: "count", value: float64(c.pagesMoved)},
		{name: "migrate.epochs", unit: "count", value: float64(c.epochs)},
		{name: "migrate.useful_ratio", unit: "frac", value: ratio(float64(c.pagesMoved), float64(c.planned)), na: unless(c.planned > 0, noMigr)},
		{name: "rdma.host_ns_per_op", unit: "ns", value: per("rdma", c.rdmaReads+c.rdmaWrites)},
		{name: "rdma.reads", unit: "count", value: float64(c.rdmaReads)},
		{name: "rdma.writes", unit: "count", value: float64(c.rdmaWrites)},
		{name: "rdma.link_util", unit: "frac", value: c.linkUtil},
		{name: "ethernet.rx", unit: "count", value: float64(c.ethRx)},
		{name: "ethernet.drops", unit: "count", value: float64(c.ethDrops)},
		{name: "loadgen.next_ns", unit: "ns", value: tr.mean(spNext, false)},
		{name: "loadgen.sent", unit: "count", value: float64(c.sent)},
		{name: "setup.system_s", unit: "s", value: phase(phaseSystem)},
		{name: "setup.app_s", unit: "s", value: phase(phaseApp)},
		{name: "setup.warm_s", unit: "s", value: phase(phaseWarm)},
		{name: "setup.start_s", unit: "s", value: phase(phaseStart)},
		{name: "sim.p50_us", unit: "us", value: c.p50us},
		{name: "sim.p99_us", unit: "us", value: c.p99us},
		{name: "sim.p999_us", unit: "us", value: c.p999us},
		{name: "sim.tput_krps", unit: "KRPS", value: c.tputK},
		{name: "sim.host_s_per_sim_s", unit: "s/s", value: ratio(profWall.Seconds()/float64(profiled), simS)},
		{name: "trace.overhead_frac", unit: "frac", value: ratio(s.scaledWall(), untraced) - 1},
		{name: "fail_frac", unit: "frac", value: ratio(float64(b.failed()), float64(len(b.reps)))},
	}
	other := 0.0
	for mod := range byMod {
		if mod != foldSwitch && mod != foldGC && !slices.Contains(foldModules, mod) {
			other += share(mod)
		}
	}
	for _, m := range foldModules {
		ms = append(ms, layerMetric{name: m + ".cpu_share", unit: "frac", value: share(m)})
	}
	ms = append(ms, layerMetric{name: "fold.other_share", unit: "frac", value: other})

	for _, m := range ms {
		if m.na != "" {
			out.Metrics[m.name] = metric{Value: 0, Unit: m.unit}
			fmt.Printf("%-30s %14s %-5s not measurable here: %s\n", m.name, "n/a (0)", m.unit, m.na)
			continue
		}
		out.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		fmt.Printf("%-30s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// unless returns why when ok is false.
func unless(ok bool, why string) string {
	if ok {
		return ""
	}
	return why
}

// printFold prints every bucket of the profile fold, largest first, and
// shows that the buckets sum to the whole profile.
func printFold(byMod map[string]int64, total int64) {
	if total == 0 {
		fmt.Println("cpu profile of System.Run: no samples")
		return
	}
	type row struct {
		mod string
		n   int64
	}
	rows := make([]row, 0, len(byMod))
	for m, n := range byMod {
		rows = append(rows, row{m, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].mod < rows[j].mod
	})
	fmt.Printf("cpu profile of System.Run folded by module (%d samples at %d Hz):\n", total/(1e9/profileHz), profileHz)
	sum := 0.0
	for _, r := range rows {
		sh := float64(r.n) / float64(total)
		sum += sh
		fmt.Printf("  %-18s %6.2f%%\n", r.mod, 100*sh)
	}
	fmt.Printf("  %-18s %6.2f%%\n", "sum", 100*sum)
}
