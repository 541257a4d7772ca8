package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/tpcc"
	"repro/internal/vecdb"
	"repro/internal/workload"
)

// phase names one timed step of a workload's set-up.
type phase int

const (
	phaseSystem phase = iota // core.NewSystem
	phaseApp                 // app build and seeding (vecdb: the blueprint too)
	phaseWarm                // WarmCache
	phaseStart               // System.StartApp
	nPhases
)

// phases times each set-up call; with a tracer attached it also records
// one span per call.
type phases struct {
	d  [nPhases]time.Duration
	tr *tracer
}

func (p *phases) do(k phase, f func()) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	p.d[k] += t1.Sub(t0)
	if p.tr != nil {
		p.tr.setupSpan(k, t0, t1)
	}
}

// total is the whole set-up time.
func (p *phases) total() time.Duration {
	var t time.Duration
	for _, d := range p.d {
		t += d
	}
	return t
}

// instance is one built, not yet started, simulation of a workload.
type instance struct {
	sys *core.System
	app workload.App
	// check is the app's own correctness oracle, run after the simulation.
	check func() error
}

// workloadDef is one benchmark workload. Every workload drives its app
// with the repo's open-loop Poisson load generator at a fixed rate, and
// one host-side run is one batch simulation of warmup+measure simulated
// time (plus the 50 ms drain core.System.Run always adds).
type workloadDef struct {
	name    string
	mode    core.Mode
	rps     float64
	warmup  sim.Time
	measure sim.Time
	// strict is whether core.System.Audit checks exact request
	// conservation: set where the post-window drain empties every queue.
	strict bool
	// minReps is the fewest repetitions a run makes, however short
	// --seconds is, so every median has enough samples.
	minReps int
	// build assembles the system and app through the public API, timing
	// the system, app and warm phases in ph.
	build func(seed int64, ph *phases) instance
}

// The three workloads are cut from existing experiments so that each
// simulation takes a few host seconds instead of minutes. Together they
// put the goroutine tier, the flat tier, preemption, migration, writes
// and heavy compute each in one workload that stresses it and one that
// bypasses it; later changes refer to them by name.
var workloads = []*workloadDef{
	// array-skew is the rebalance experiment's migration-on point. It is
	// the only workload on the flat unithread tier, the only one with a
	// multi-node fabric and the migrate layer, and it has the shortest
	// requests and the highest request rate, so per-request kernel cost,
	// the paging hit/fault paths and the migrate heat hooks show here.
	// It has almost no app compute.
	{
		name: "array-skew", mode: core.Adios, rps: 2.6e6,
		warmup: sim.Millis(5), measure: sim.Millis(60), strict: true, minReps: 3,
		build: buildArraySkew,
	},
	// tpcc-rw is the fig12 short configuration under Adios: the goroutine
	// tier under yield, with Block-based district locks and B-tree walks.
	// It is write-heavy (most faults evict a dirty page), so it exercises
	// the paging store and write-back paths next to array-skew's mostly
	// read path: a gain for reads that costs writes shows here.
	{
		name: "tpcc-rw", mode: core.Adios, rps: 250e3,
		warmup: sim.Millis(15), measure: sim.Millis(100), strict: true, minReps: 3,
		build: buildTPCC,
	},
	// vecdb-scan is the fig13 short configuration under DiLOS-P
	// (busy-wait plus 5 us preemption): millisecond queries with hundreds
	// of faults each, one Compute charge and one Space.Load copy per
	// 520-byte vector and a preemption probe every 32 vectors. Coalesced
	// compute charging, zero-copy reads and the busy-wait and preemption
	// paths act here, and its set-up is dominated by the k-means
	// blueprint. Even scaled to the reference kernel, one repetition's
	// System.Run time varies by ~10% on the host this was tuned on, at
	// any window length, so the window is short (~375 queries) and a run
	// makes ten repetitions, however short --seconds is.
	{
		name: "vecdb-scan", mode: core.DiLOSP, rps: 1500,
		warmup: sim.Millis(25), measure: sim.Millis(225), strict: true, minReps: 10,
		build: vecdbBuild(),
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Constants of the rebalance experiment's migration-on point.
const (
	arrayBytes     = 64 << 20
	arrayNodes     = 4
	arrayLocalFrac = 0.01
	arrayCyB       = 2.0 // 10GbE-class link, cycles per wire byte
	arraySkewS     = 1.2
	arrayWriteFrac = 0.25
)

func buildArraySkew(seed int64, ph *phases) instance {
	local := arrayLocalFrac * float64(arrayBytes)
	cfg := core.Preset(core.Adios, int64(local))
	cfg.Seed = seed
	cfg.MemNodes = arrayNodes
	cfg.Shard = core.Block(arrayBytes / 4096 / arrayNodes)
	cfg.RDMA.CyclesPerByte = arrayCyB
	cfg.Migrate = migrate.Config{Enabled: true, Epoch: sim.Micros(200),
		HotThreshold: 4, Bandwidth: 0.25, Imbalance: 1.2, MaxMoves: 256, MinFaults: 16}
	var sys *core.System
	var app *workload.ArrayApp
	ph.do(phaseSystem, func() { sys = core.NewSystem(cfg) })
	ph.do(phaseApp, func() {
		app = workload.NewArrayApp(sys.Mgr, sys.Mem, arrayBytes)
		app.WriteFrac = arrayWriteFrac
		app.SetSkew(arraySkewS)
	})
	ph.do(phaseWarm, app.WarmCache)
	return instance{sys: sys, app: app, check: func() error {
		if n := app.Mismatches.Value(); n != 0 {
			return fmt.Errorf("array: %d responses did not match the seeded value", n)
		}
		return nil
	}}
}

// tpccConfig is the fig12 short configuration.
func tpccConfig() tpcc.Config {
	cfg := tpcc.DefaultConfig(1)
	cfg.CustomersPerDistrict = 300
	cfg.ItemCount = 5000
	cfg.InitialOrders = 300
	cfg.OrderCapacity = 2000
	return cfg
}

func buildTPCC(seed int64, ph *phases) instance {
	tc := tpccConfig()
	var sys *core.System
	var db *tpcc.DB
	// Local DRAM is 20% of the database, whose size only a built database
	// reports; the probe build counts as app set-up, as in fig12.
	var local int64
	ph.do(phaseApp, func() {
		probe := core.NewSystem(core.Preset(core.Adios, 1<<22))
		local = int64(0.20 * float64(tpcc.New(probe.Env, probe.Mgr, probe.Node, tc).TotalBytes()))
	})
	cfg := core.Preset(core.Adios, local)
	cfg.Seed = seed
	ph.do(phaseSystem, func() { sys = core.NewSystem(cfg) })
	ph.do(phaseApp, func() { db = tpcc.New(sys.Env, sys.Mgr, sys.Mem, tc) })
	ph.do(phaseWarm, db.WarmCache)
	return instance{sys: sys, app: db, check: db.CheckConsistency}
}

// vecdbBuild returns vecdb-scan's build function. Its search oracle
// outlives one simulation: the repetitions of a run draw the same queries
// against the same vectors, so each query is searched directly once.
func vecdbBuild() func(int64, *phases) instance {
	var oracle searchOracle
	return func(seed int64, ph *phases) instance {
		vc := vecdb.DefaultConfig(30_000)
		var bp *vecdb.Blueprint
		ph.do(phaseApp, func() { bp = vecdb.NewBlueprint(vc) })
		cfg := core.Preset(core.DiLOSP, int64(0.20*float64(int64(vc.N)*int64(8+vc.Dim*4))))
		cfg.Seed = seed
		var sys *core.System
		var idx *vecdb.Index
		ph.do(phaseSystem, func() { sys = core.NewSystem(cfg) })
		ph.do(phaseApp, func() { idx = bp.Instantiate(sys.Mgr, sys.Mem) })
		ph.do(phaseWarm, idx.WarmCache)
		app := &recordingIndex{Index: idx, oracle: &oracle}
		return instance{sys: sys, app: app, check: app.verify}
	}
}

// searchOracle remembers Index.SearchDirect's answer to each query of the
// first repetition, by position.
type searchOracle struct {
	queries [][]float32
	want    []vecdb.Result
}

// expect returns SearchDirect's answer to q, the i-th query of a run.
func (o *searchOracle) expect(idx *vecdb.Index, i int, q []float32) vecdb.Result {
	if i < len(o.queries) && slices.Equal(o.queries[i], q) {
		return o.want[i]
	}
	w := idx.SearchDirect(q)
	if i == len(o.queries) {
		o.queries = append(o.queries, q)
		o.want = append(o.want, w)
	}
	return w
}

// recordingIndex keeps every query and the result the simulated search
// returned, so the run can be checked against Index.SearchDirect.
type recordingIndex struct {
	*vecdb.Index
	oracle  *searchOracle
	queries []vecdb.Query
	results []vecdb.Result
}

func (r *recordingIndex) Handler() workload.Handler {
	h := r.Index.Handler()
	return func(ctx workload.Ctx, payload any) (any, int) {
		resp, n := h(ctx, payload)
		r.queries = append(r.queries, payload.(vecdb.Query))
		r.results = append(r.results, resp.(vecdb.Result))
		return resp, n
	}
}

func (r *recordingIndex) verify() error {
	if len(r.results) == 0 {
		return fmt.Errorf("vecdb: no query completed")
	}
	for i, q := range r.queries {
		want := r.oracle.expect(r.Index, i, q.Vec).Neighbors
		got := r.results[i].Neighbors
		if len(got) != len(want) {
			return fmt.Errorf("vecdb: query %d returned %d neighbours, SearchDirect %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				return fmt.Errorf("vecdb: query %d neighbour %d is %+v, SearchDirect gives %+v", i, j, got[j], want[j])
			}
		}
	}
	return nil
}
