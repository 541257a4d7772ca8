package main

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// counters are the modules' public counters, read after a run.
type counters struct {
	maxPending int
	simEnd     sim.Time

	completed      int64
	workerBusy     int64
	workers        int
	cpuCycles      int64
	busyWaitCycles int64
	dispCycles     int64

	faults, hits, evictions, writebacks, fetchWaits, allocStalls int64

	pagesMoved, planned, epochs int64

	rdmaReads, rdmaWrites int64
	linkUtil              float64

	ethRx, ethDrops int64
	sent            int64

	p50us, p99us, p999us, tputK float64
}

func readCounters(sys *core.System, res core.RunResult) counters {
	c := counters{
		maxPending:     sys.Env.MaxPending(),
		simEnd:         sys.Env.Now(),
		completed:      res.Completed,
		cpuCycles:      sys.Sched.CPUCycles(),
		busyWaitCycles: sys.Sched.BusyWaitCycles(),
		dispCycles:     sys.Sched.DispatcherCycles(),
		faults:         sys.Mgr.Faults.Value(),
		hits:           sys.Mgr.Hits.Value(),
		evictions:      sys.Mgr.Evictions.Value(),
		writebacks:     sys.Mgr.DirtyWritebacks.Value(),
		fetchWaits:     sys.Mgr.FetchWaits.Value(),
		allocStalls:    sys.Mgr.AllocStalls.Value(),
		rdmaReads:      sys.Fabric.Reads(),
		rdmaWrites:     sys.Fabric.Writes(),
		linkUtil:       res.LinkUtil,
		ethRx:          sys.Net.RxCount.Value(),
		ethDrops:       sys.Net.Drops.Value(),
		sent:           res.Gen.Sent.Value(),
		p50us:          res.P50us,
		p99us:          res.P99us,
		p999us:         res.P999us,
		tputK:          res.TputK,
	}
	for _, w := range sys.Sched.Workers() {
		c.workerBusy += w.BusyCycles()
		c.workers++
	}
	if sys.Migr != nil {
		c.pagesMoved = sys.Migr.PagesMoved.Value()
		c.planned = sys.Migr.Planned.Value()
		c.epochs = sys.Migr.Epochs.Value()
	}
	return c
}
