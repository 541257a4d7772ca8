// Package core assembles the full disaggregated system and exposes the
// public build-and-run API: pick a Mode (Adios, DiLOS, DiLOS-P, Hermit,
// or legacy Infiniswap), a local-DRAM size, and a workload; run a load
// sweep; read back latency percentiles, throughput, and link
// utilization.
//
// All modes share one data plane — the RDMA fabric, the paging
// subsystem, the unithread scheduler — and differ only in policy
// (wait/dispatch/TX) and in calibrated cost constants, so performance
// differences between systems emerge from the mechanisms the paper
// credits rather than from divergent code paths.
package core

import (
	"fmt"

	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/memnode"
	"repro/internal/migrate"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/unithread"
	"repro/internal/workload"
)

// Mode identifies a system under test.
type Mode int

const (
	// Adios: yield-based page fault handling, PF-aware dispatch, polling
	// delegation (§3).
	Adios Mode = iota
	// DiLOS: unikernel busy-wait page fault handling (the paper's
	// primary baseline).
	DiLOS
	// DiLOSP is DiLOS plus Concord-style cooperative preemption with a
	// 5 µs quantum (the paper's DiLOS-P).
	DiLOSP
	// Hermit: kernel-based busy-wait MD with async non-urgent work;
	// carries kernel fault/network overheads and OS scheduling jitter.
	Hermit
	// Infiniswap: legacy yield-based paging through the heavyweight
	// kernel scheduler — interrupt wake-ups and multi-microsecond
	// context switches (§7's historical anchor; excluded from the
	// paper's plots for being off-scale, included here as an extension).
	Infiniswap
)

// String returns the mode's display name.
func (m Mode) String() string {
	switch m {
	case Adios:
		return "Adios"
	case DiLOS:
		return "DiLOS"
	case DiLOSP:
		return "DiLOS-P"
	case Hermit:
		return "Hermit"
	case Infiniswap:
		return "Infiniswap"
	}
	return "unknown"
}

// Config assembles a system under test.
type Config struct {
	Mode   Mode
	Sched  sched.Config
	RDMA   rdma.Config
	Eth    ethernet.Config
	Paging paging.Config

	// PoolSize and BufSize configure the unithread pool (§3.2).
	PoolSize int
	BufSize  int

	// MemNodeBytes is the per-memory-node capacity.
	MemNodeBytes int64

	// MemNodes is the number of memory nodes the backing store is
	// striped across (0 or 1 = the paper's single memory node; a
	// one-node run is byte-identical to the pre-sharding system).
	MemNodes int

	// Replicas is the page replication factor: each page gets a primary
	// plus Replicas-1 copies on distinct nodes (clamped to MemNodes).
	// 0 or 1 is today's unreplicated store, byte-identical to it.
	Replicas int

	// Shard selects the shard-placement policy for multi-node runs;
	// nil is Stripe (page p → node p mod N).
	Shard Placement

	// Faults is the fault-injection plan; the zero value disables
	// injection entirely (no interceptor is installed, so fault-free runs
	// are byte-identical to builds without the faults package wired).
	Faults faults.Config

	// Migrate configures hot-page tracking and online migration; the
	// zero value disables it entirely (no hooks fire, no epoch task is
	// scheduled, so migration-off runs are byte-identical to builds
	// without the migrate package wired).
	Migrate migrate.Config

	Seed int64
}

// Preset returns the calibrated configuration for a mode with the given
// local DRAM cache size.
func Preset(mode Mode, localBytes int64) Config {
	cfg := Config{
		Mode:         mode,
		Sched:        sched.DefaultConfig(),
		RDMA:         rdma.DefaultConfig(),
		Eth:          ethernet.DefaultConfig(),
		Paging:       paging.DefaultConfig(localBytes),
		PoolSize:     unithread.DefaultPoolSize,
		BufSize:      unithread.DefaultBufSize,
		MemNodeBytes: 8 << 30,
		Seed:         1,
	}
	switch mode {
	case Adios:
		cfg.Sched.Wait = sched.Yield
		cfg.Sched.Dispatch = sched.PFAware
		cfg.Sched.Tx = sched.DelegatedTx
	case DiLOS:
		cfg.Sched.Wait = sched.BusyWait
		cfg.Sched.Dispatch = sched.RoundRobin
		cfg.Sched.Tx = sched.SyncTx
	case DiLOSP:
		cfg.Sched.Wait = sched.BusyWait
		cfg.Sched.Dispatch = sched.RoundRobin
		cfg.Sched.Tx = sched.SyncTx
		cfg.Sched.Preempt = true
	case Hermit:
		cfg.Sched.Wait = sched.BusyWait
		cfg.Sched.Dispatch = sched.RoundRobin
		cfg.Sched.Tx = sched.SyncTx
		// Kernel-path overheads beyond the unikernel baseline. Hermit
		// overlaps ~10 % of non-urgent fault work asynchronously (§2.3),
		// which is already discounted from KernelFaultExtra.
		cfg.Sched.Costs.KernelFaultExtra = 1500
		cfg.Sched.Costs.KernelNetExtra = 1200
		cfg.Sched.Costs.JitterProb = 0.004
		cfg.Sched.Costs.JitterMean = sim.Micros(130)
	case Infiniswap:
		cfg.Sched.Wait = sched.Yield
		cfg.Sched.Dispatch = sched.RoundRobin
		cfg.Sched.Tx = sched.SyncTx
		// Interrupt-driven wake-up plus kernel context switches: ~4 µs
		// per switch (the figure §7 cites), charged on the fault path.
		cfg.Sched.Costs.UnithreadSwitch = sim.Micros(4)
		cfg.Sched.Costs.KernelFaultExtra = sim.Micros(5)
		cfg.Sched.Costs.KernelNetExtra = 2600
		cfg.Sched.Costs.JitterProb = 0.0025
		cfg.Sched.Costs.JitterMean = sim.Micros(120)
	}
	return cfg
}

// System is an assembled compute node + memory node(s) + client network.
type System struct {
	Cfg Config
	Env *sim.Env
	Net *ethernet.Net

	// Fabric holds one NIC (one independent link) per memory node;
	// NIC aliases Fabric[0] for single-node call sites.
	Fabric rdma.Fabric
	NIC    *rdma.NIC

	// Nodes are the memory nodes, Mem the striped allocation view over
	// them, and Shards the page→node map. Node aliases Nodes[0].
	Nodes  []*memnode.Node
	Mem    *memnode.Cluster
	Node   *memnode.Node
	Shards *ShardMap

	Mgr   *paging.Manager
	Pool  *unithread.Pool
	Sched *sched.Scheduler // nil until Start

	// Injectors is indexed by memory node; entries are nil for nodes
	// the fault plan does not target (and the whole slice is nil when
	// no plan is enabled). Faults aliases the first non-nil injector.
	Injectors []*faults.Injector
	Faults    *faults.Injector

	// Health and Repair exist only on runs with a crash= plan: the
	// failure detector over the fabric and the background re-replicator.
	// Both nil otherwise, so crash-free runs schedule no extra events.
	Health *rdma.Health
	Repair *paging.Repairer

	// Migr exists only on multi-node runs with migration enabled: the
	// hot-page tracker + online migration executor. Nil otherwise, so
	// migration-off runs schedule no extra events.
	Migr *migrate.Migrator
}

// NewSystem builds the data plane. Applications then allocate their
// spaces (via Mgr and Mem) before Start wires the scheduler.
func NewSystem(cfg Config) *System {
	n := cfg.MemNodes
	if n < 1 {
		n = 1
	}
	env := sim.NewEnv(cfg.Seed)
	shards := NewShardMap(n, cfg.Shard)
	if cfg.Replicas > 1 {
		shards.SetReplicas(cfg.Replicas)
	}
	nodes := make([]*memnode.Node, n)
	for k := range nodes {
		nodes[k] = memnode.New(cfg.MemNodeBytes)
	}
	sys := &System{
		Cfg:    cfg,
		Env:    env,
		Net:    ethernet.New(env, cfg.Eth),
		Fabric: rdma.NewFabric(env, cfg.RDMA, n),
		Nodes:  nodes,
		Node:   nodes[0],
		Mem: memnode.NewClusterReplicated(nodes, paging.PageSize, shards.Place(),
			shards.Replicas(), shards.ReplicaAt()),
		Shards: shards,
		Mgr:    paging.NewManager(env, cfg.Paging),
		Pool:   unithread.NewPool(cfg.PoolSize, cfg.BufSize),
	}
	sys.NIC = sys.Fabric[0]
	if cfg.Faults.Injects() {
		sys.Injectors = make([]*faults.Injector, n)
		for k := 0; k < n; k++ {
			if !cfg.Faults.Targets(k) {
				continue
			}
			inj := faults.NewForNode(cfg.Faults, nodes[k], cfg.Seed, k)
			sys.Injectors[k] = inj
			sys.Fabric[k].SetInterceptor(inj)
			if sys.Faults == nil {
				sys.Faults = inj
			}
		}
	}
	if cfg.Faults.CrashSet {
		if cfg.Faults.CrashNode >= n {
			panic(fmt.Sprintf("core: crash plan targets node %d of %d", cfg.Faults.CrashNode, n))
		}
		var rejoin sim.Time
		if cfg.Faults.RejoinSet {
			rejoin = cfg.Faults.RejoinAt
		}
		sys.Fabric[cfg.Faults.CrashNode].ScheduleCrash(cfg.Faults.CrashAt, rejoin)
		sys.Health = rdma.NewHealth(env, sys.Fabric, rdma.DefaultHealthConfig())
		sys.Mgr.SetHealth(sys.Health)
	}
	return sys
}

// Start launches the scheduler (dispatcher + workers) for the given
// handler and the pinned reclaimer thread.
func (sys *System) Start(handler workload.Handler) {
	sys.startWith(handler, nil)
}

// StartApp launches the scheduler for app. When the app provides a
// resumable-step handler (workload.StepApp) the scheduler runs requests
// on the flat unithread tier wherever the configuration qualifies
// (yield wait, no preemption) — the identical simulated schedule with
// no per-request coroutine. Apps without a step handler, and
// non-qualifying configurations, run on the goroutine tier exactly as
// via Start.
func (sys *System) StartApp(app workload.App) {
	var stepH workload.StepHandler
	if sa, ok := app.(workload.StepApp); ok {
		stepH = sa.StepHandler()
	}
	sys.startWith(app.Handler(), stepH)
}

func (sys *System) startWith(handler workload.Handler, stepH workload.StepHandler) {
	sys.Sched = sched.New(sys.Env, sys.Cfg.Sched, sys.Net, sys.Fabric, sys.Mgr, sys.Pool, handler)
	if stepH != nil {
		sys.Sched.SetStepHandler(stepH)
	}
	sys.Sched.Start()
	rcq := rdma.NewCQ("reclaimer")
	rqps := sys.Fabric.CreateQPs("reclaimer", rcq)
	sys.Mgr.StartReclaimerQPs(rqps, rcq)
	if sys.Health != nil {
		fcq := rdma.NewCQ("failover")
		fqps := sys.Fabric.CreateQPs("failover", fcq)
		sys.Mgr.SetFailoverQPs(fqps, fcq)
		pcq := rdma.NewCQ("repair")
		pqps := sys.Fabric.CreateQPs("repair", pcq)
		sys.Repair = paging.NewRepairer(sys.Mgr, pqps, pcq, paging.DefaultRepairConfig())
		sys.Health.OnDown = sys.Repair.NodeDown
		sys.Health.Start()
	}
	if sys.Cfg.Migrate.Enabled && len(sys.Fabric) > 1 {
		mcq := rdma.NewCQ("migrate")
		mqps := sys.Fabric.CreateQPs("migrate", mcq)
		sys.Migr = migrate.New(sys.Mgr, sys.Mem, mqps, mcq, sys.Cfg.Migrate)
		sys.Migr.OnFlip = func(s *paging.Space, vpn int64, from, to int) {
			sys.Shards.Override(vpn, to)
		}
		sys.Mgr.SetMigrator(sys.Migr)
		if sys.Repair != nil {
			sys.Repair.OnReown = func(s *paging.Space, vpn int64, slot, dst int) {
				sys.Migr.NoteReown(s, vpn, slot, dst)
				if slot == 0 {
					sys.Shards.Override(vpn, dst)
				}
			}
		}
	}
}

// RunResult summarizes one measured run.
type RunResult struct {
	Mode      Mode
	OfferedK  float64 // offered load, KRPS
	TputK     float64 // achieved throughput, KRPS
	P50us     float64
	P99us     float64
	P999us    float64
	MeanUs    float64
	LinkUtil  float64 // RDMA inbound (fetch) link utilization
	Drops     int64   // RX + central-queue + pool drops
	Faults    int64
	Completed int64

	// Aborts counts requests failed by retry exhaustion on a demand
	// fetch; Retries counts fetch/write-back reposts. Zero when the fault
	// plan is disabled.
	Aborts  int64
	Retries int64

	// Failovers counts fetches re-routed to a replica off a dead node;
	// Repaired counts copies restored by background re-replication.
	// Both zero unless a crash plan is configured.
	Failovers int64
	Repaired  int64

	// Migrations counts pages whose owner flip landed; zero unless
	// migration is enabled.
	Migrations int64

	// Breakdown aggregates (cycles) over completed requests, for the
	// Figure 2(c)/7(c) decomposition.
	Gen *loadgen.Gen // full histograms for CDFs and per-class latency
}

// Run drives the system with app at rateRPS for warmup+measure simulated
// time and returns the measurement. The system must have been started.
func (sys *System) Run(app workload.App, rateRPS float64, warmup, measure sim.Time) RunResult {
	end := warmup + measure
	gen := loadgen.Start(sys.Env, sys.Net, app, rateRPS, warmup, end)
	if c, ok := app.(interface{ Classify(any) string }); ok {
		gen.Classifier = c.Classify
	}
	sys.Env.At(warmup, func() {
		sys.Fabric.StartWindow()
		sys.Net.StartWindow()
	})
	// Capture utilization exactly at the window end, then drain so
	// in-flight responses land.
	var linkUtil float64
	sys.Env.At(end, func() { linkUtil = sys.Fabric.InUtilization() })
	sys.Env.Run(end + sim.Millis(50))

	var repaired, migrations int64
	if sys.Repair != nil {
		repaired = sys.Repair.Repaired.Value()
	}
	if sys.Migr != nil {
		migrations = sys.Migr.PagesMoved.Value()
	}
	now := end
	return RunResult{
		Mode:      sys.Cfg.Mode,
		OfferedK:  rateRPS / 1000,
		TputK:     gen.Throughput(now) / 1000,
		P50us:     sim.Time(gen.E2E.P50()).Micros(),
		P99us:     sim.Time(gen.E2E.P99()).Micros(),
		P999us:    sim.Time(gen.E2E.P999()).Micros(),
		MeanUs:    sim.Time(gen.E2E.Mean()).Micros(),
		LinkUtil:  linkUtil,
		Drops:     sys.Net.Drops.Value() + sys.Sched.DropsQueue.Value() + sys.Sched.DropsPool.Value(),
		Faults:    sys.Mgr.Faults.Value(),
		Completed: sys.Sched.Completed.Value(),
		Aborts:    sys.Sched.FaultAborts.Value(),
		Retries:   sys.Mgr.FetchRetries.Value() + sys.Mgr.WritebackRetries.Value(),
		Failovers:  sys.Mgr.FailoverReads.Value(),
		Repaired:   repaired,
		Migrations: migrations,
		Gen:        gen,
	}
}
