package main

import (
	"fmt"

	"repro/internal/core"
)

// defaultSeed is the seed later changes are tuned on; heldOutSeed is
// kept for re-checking a claim on a seed it was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 4242
)

// digest is the simulated outcome of one run. A change that only speeds
// up the simulator must leave it bit-identical.
type digest struct {
	Sent, Completed, Drops  int64
	Faults, Hits, Evictions int64
	Writebacks              int64
	RDMAReads, RDMAWrites   int64
	Migrations              int64
	P50, P99, P999          int64 // end-to-end latency, simulated cycles
}

func makeDigest(sys *core.System, res core.RunResult) digest {
	return digest{
		Sent:       res.Gen.Sent.Value(),
		Completed:  res.Completed,
		Drops:      res.Drops,
		Faults:     res.Faults,
		Hits:       sys.Mgr.Hits.Value(),
		Evictions:  sys.Mgr.Evictions.Value(),
		Writebacks: sys.Mgr.DirtyWritebacks.Value(),
		RDMAReads:  sys.Fabric.Reads(),
		RDMAWrites: sys.Fabric.Writes(),
		Migrations: res.Migrations,
		P50:        res.Gen.E2E.P50(),
		P99:        res.Gen.E2E.P99(),
		P999:       res.Gen.E2E.P999(),
	}
}

func (d digest) String() string {
	return fmt.Sprintf("{sent=%d completed=%d drops=%d faults=%d hits=%d evictions=%d writebacks=%d rdma_reads=%d rdma_writes=%d migrations=%d p50=%d p99=%d p999=%d}",
		d.Sent, d.Completed, d.Drops, d.Faults, d.Hits, d.Evictions, d.Writebacks,
		d.RDMAReads, d.RDMAWrites, d.Migrations, d.P50, d.P99, d.P999)
}

// pinnedDigests holds the reference outcome of each workload for the
// default and the held-out seed. Runs on other seeds are checked for
// determinism between repetitions only.
var pinnedDigests = map[string]map[int64]string{
	"array-skew": {
		defaultSeed: "{sent=168784 completed=168784 drops=0 faults=15869 hits=150485 evictions=16128 writebacks=5152 rdma_reads=16872 rdma_writes=5906 migrations=751 p50=6239 p99=33023 p999=69119}",
		heldOutSeed: "{sent=169510 completed=169510 drops=0 faults=15788 hits=151303 evictions=16064 writebacks=5152 rdma_reads=16800 rdma_writes=5922 migrations=766 p50=6239 p99=33535 p999=64255}",
	},
	"tpcc-rw": {
		defaultSeed: "{sent=28747 completed=28747 drops=0 faults=16963 hits=3989671 evictions=16960 writebacks=11066 rdma_reads=17014 rdma_writes=11066 migrations=0 p50=17023 p99=378879 p999=432127}",
		heldOutSeed: "{sent=28378 completed=28378 drops=0 faults=16517 hits=3931664 evictions=16512 writebacks=10879 rdma_reads=16579 rdma_writes=10879 migrations=0 p50=17023 p99=378879 p999=423935}",
	},
	"vecdb-scan": {
		defaultSeed: "{sent=352 completed=352 drops=0 faults=207223 hits=2714396 evictions=207232 writebacks=0 rdma_reads=207223 rdma_writes=0 migrations=0 p50=6258687 p99=7438335 p999=7686581}",
		heldOutSeed: "{sent=341 completed=341 drops=0 faults=199230 hits=2620815 evictions=199232 writebacks=0 rdma_reads=199230 rdma_writes=0 migrations=0 p50=6127615 p99=7634943 p999=7766015}",
	},
}
