// Package migrate implements deterministic online page migration:
// adaptive placement of hot pages across memory nodes. It observes the
// paging hot paths through the paging.Migrator hooks (per-page heat
// with epoch-decayed counters, per-node fault counts), detects load
// imbalance at event-driven epoch boundaries — no RNG, no wall clock —
// plans migrations of the hottest pages from the overloaded node to
// the least-loaded live node, and executes them as bandwidth-paced
// copies on its own QPs (the repair pacing pattern), finishing with an
// owner-table flip (Region.Reown slot 0 plus the core ShardMap
// override).
//
// In-flight correctness is explicit. Each migration walks the state
// machine
//
//	idle → copying (READ src, WRITE dst) → flipping → done
//
// and the flip is deferred while the page has a fetch or write-back in
// flight, so no page movement ever straddles a re-route; a per-page
// generation counter, stamped on every fetch at post time and checked
// at completion, turns that claim into an oracle. Write-backs that
// start while a copy is in flight dual-apply: the reclaimer fans them
// out to the copy's destination too, so the new home never holds stale
// bytes when the flip lands. A node death mid-copy aborts the job
// cleanly (the failover/repair machinery owns recovery; repair's
// re-homes are fed back through NoteReown so the owner views stay
// consistent), and a destination without capacity is never planned.
package migrate

import (
	"fmt"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config tunes the migration subsystem. The zero value is disabled;
// New fills zero fields of an enabled config with the defaults below.
type Config struct {
	// Enabled arms the subsystem. Disabled configs build nothing: runs
	// are byte-identical to builds without migration support.
	Enabled bool
	// Epoch is the heat-decay / planning interval (default 100 µs).
	Epoch sim.Time
	// HotThreshold is the minimum decayed heat for a page to be
	// migration-eligible (default 4).
	HotThreshold int
	// Bandwidth caps copy traffic in bytes per cycle, exactly like
	// repair pacing (default 0.5 B/cy).
	Bandwidth float64
	// Imbalance is the max/mean per-node fault ratio at or above which
	// an epoch plans migrations (default 1.3).
	Imbalance float64
	// MaxMoves bounds migrations planned per epoch (default 64).
	MaxMoves int
	// MinFaults is the minimum fault count on the hottest node per
	// epoch before planning triggers — below it the sample is noise
	// (default 64).
	MinFaults int
}

// DefaultConfig returns the calibrated migration configuration.
func DefaultConfig() Config {
	return Config{
		Enabled:      true,
		Epoch:        sim.Micros(100),
		HotThreshold: 4,
		Bandwidth:    0.5,
		Imbalance:    1.3,
		MaxMoves:     64,
		MinFaults:    64,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.Epoch <= 0 {
		c.Epoch = def.Epoch
	}
	if c.HotThreshold <= 0 {
		c.HotThreshold = def.HotThreshold
	}
	if c.Bandwidth <= 0 {
		c.Bandwidth = def.Bandwidth
	}
	if c.Imbalance <= 0 {
		c.Imbalance = def.Imbalance
	}
	if c.MaxMoves <= 0 {
		c.MaxMoves = def.MaxMoves
	}
	if c.MinFaults <= 0 {
		c.MinFaults = def.MinFaults
	}
	return c
}

// pageKey identifies one page of one space.
type pageKey struct {
	space int32
	vpn   int64
}

// job is one planned migration: move the primary copy of (s, vpn)
// from node `from` to node `to`.
type job struct {
	s       *paging.Space
	vpn     int64
	from    int
	to      int
	planned sim.Time // plan time, for MigrLat
}

// Executor states.
const (
	mgIdle  = iota // queue empty
	mgNext         // pick up the next job (also the bandwidth-gap wait)
	mgRead         // READ of the source copy in flight
	mgWrite        // WRITE to the destination in flight
	mgFlip         // copy durable; waiting for the page to be quiescent
)

// Migrator is the assembled migration subsystem: heat tracker, epoch
// planner, and paced copy executor. It implements paging.Migrator.
type Migrator struct {
	env   *sim.Env
	m     *paging.Manager
	mem   *memnode.Cluster
	cfg   Config
	nodes int

	qps []*rdma.QP
	cq  *rdma.CQ
	t   *sim.Task // executor state machine
	et  *sim.Task // epoch ticker
	gap sim.Time

	buf  []byte // local staging buffer (READ destination)
	sink []byte // modeled WRITE target at the new home

	// heats holds one saturating decayed counter per page, indexed by
	// space id then vpn; epochFaults counts fetch posts per node within
	// the current epoch. Both are pure observations of the hot-path
	// hooks — no RNG, no wall clock.
	heats       [][]uint16
	epochFaults []int64

	gens    map[pageKey]uint32 // per-page migration generation
	copying map[pageKey]int    // in-flight copy destination (dual-apply)
	queued  map[pageKey]bool   // page has a job queued or in flight
	flips   map[pageKey]int    // last landed primary re-home (flip or repair)

	jobs  []job
	ji    int
	state int

	hash uint64 // FNV-1a over every flip (space, vpn, from, to, at)

	// OnFlip, if set, observes every landed flip (core wires the
	// ShardMap override). Trace, if set, gets one span per migration on
	// the migrate lane.
	OnFlip func(s *paging.Space, vpn int64, from, to int)
	Trace  *trace.Recorder

	// PagesMoved/BytesMoved count landed migrations; Planned counts
	// jobs the epoch planner queued; Deferred counts flip retries that
	// waited out an in-flight page; Aborted counts jobs dropped
	// (node death mid-copy, owner changed, capacity gone); Retries
	// counts fabric retries; Epochs counts epoch boundaries.
	PagesMoved stats.Counter
	BytesMoved stats.Counter
	Planned    stats.Counter
	Deferred   stats.Counter
	Aborted    stats.Counter
	Retries    stats.Counter
	Epochs     stats.Counter

	// MigrLat records, per landed migration, plan time → owner flip.
	MigrLat *stats.Histogram
}

// New builds the migrator over per-node QPs created for it (all
// completing on cq, which must be dedicated to it) and starts the
// epoch ticker. Zero cfg fields take defaults.
func New(m *paging.Manager, mem *memnode.Cluster, qps []*rdma.QP, cq *rdma.CQ, cfg Config) *Migrator {
	cfg = cfg.withDefaults()
	mg := &Migrator{
		env:         m.Env(),
		m:           m,
		mem:         mem,
		cfg:         cfg,
		nodes:       mem.NumNodes(),
		qps:         qps,
		cq:          cq,
		gap:         sim.Time(float64(paging.PageSize) / cfg.Bandwidth),
		buf:         make([]byte, paging.PageSize),
		sink:        make([]byte, paging.PageSize),
		epochFaults: make([]int64, mem.NumNodes()),
		gens:        make(map[pageKey]uint32),
		copying:     make(map[pageKey]int),
		queued:      make(map[pageKey]bool),
		flips:       make(map[pageKey]int),
		hash:        1469598103934665603, // FNV-1a offset basis
		MigrLat:     stats.NewHistogram(),
	}
	mg.t = sim.NewTask(mg.env, "migrate", mg.fire)
	mg.et = sim.NewTask(mg.env, "migrate-epoch", mg.epoch)
	cq.Notify = func() {
		if !mg.t.Armed() {
			mg.t.FireAt(mg.env.Now())
		}
	}
	mg.et.FireAfter(cfg.Epoch)
	return mg
}

// Config returns the effective (default-filled) configuration.
func (mg *Migrator) Config() Config { return mg.cfg }

// ScheduleHash returns an order-sensitive digest of every landed flip
// (what moved where, and when), for determinism tests.
func (mg *Migrator) ScheduleHash() uint64 { return mg.hash }

// Pending returns queued-but-unfinished jobs.
func (mg *Migrator) Pending() int { return len(mg.jobs) - mg.ji }

// ---- paging.Migrator hooks (hot path) ----

// heat returns the space's heat array, sized on first use.
func (mg *Migrator) heat(s *paging.Space) []uint16 {
	id := int(s.ID())
	for id >= len(mg.heats) {
		mg.heats = append(mg.heats, nil)
	}
	if mg.heats[id] == nil {
		mg.heats[id] = make([]uint16, s.Pages())
	}
	return mg.heats[id]
}

// bump adds w to a saturating heat counter.
func bump(h []uint16, vpn int64, w uint16) {
	if hv := h[vpn]; hv <= 0xffff-w {
		h[vpn] = hv + w
	} else {
		h[vpn] = 0xffff
	}
}

// RecordFault observes a fetch post: demand misses weigh 8, async
// fills 1, and both count toward the target node's epoch load.
func (mg *Migrator) RecordFault(s *paging.Space, vpn int64, node int, demand bool) {
	mg.epochFaults[node]++
	w := uint16(1)
	if demand {
		w = 8
	}
	bump(mg.heat(s), vpn, w)
}

// RecordTouch observes a resident hit (weight 1).
func (mg *Migrator) RecordTouch(s *paging.Space, vpn int64) {
	bump(mg.heat(s), vpn, 1)
}

// Gen returns the page's migration generation.
func (mg *Migrator) Gen(s *paging.Space, vpn int64) uint32 {
	return mg.gens[pageKey{s.ID(), vpn}]
}

// CheckRead is the stale-read oracle: a fetch completing under a
// different generation than it was posted under read across a flip,
// which the flip's quiescence wait is supposed to make impossible.
func (mg *Migrator) CheckRead(s *paging.Space, vpn int64, node int, gen uint32) {
	if cur := mg.gens[pageKey{s.ID(), vpn}]; cur != gen {
		simcheck.Fail(simcheck.New("migrate/stale-read",
			"fetch completed across an owner flip: the install may hold the pre-migration copy").
			With("space", s.Name()).With("page", vpn).With("node", node).
			With("postGen", gen).With("nowGen", cur))
	}
}

// WBExtraMask returns the copy destination's bit while a copy of the
// page is in flight, so the reclaimer dual-applies write-backs there.
func (mg *Migrator) WBExtraMask(s *paging.Space, vpn int64) uint64 {
	if dst, ok := mg.copying[pageKey{s.ID(), vpn}]; ok {
		return 1 << uint(dst)
	}
	return 0
}

// NoteReown is the repair OnReown feed: when repair re-homes a primary
// copy migration had moved, the flip ledger follows it, so the audit
// oracle compares against the true last re-home rather than a stale
// migration target.
func (mg *Migrator) NoteReown(s *paging.Space, vpn int64, slot, dst int) {
	if slot != 0 {
		return
	}
	key := pageKey{s.ID(), vpn}
	if _, ok := mg.flips[key]; ok {
		mg.flips[key] = dst
	}
}

// ---- epoch planner ----

// epoch is the recurring epoch-boundary event: plan against the
// epoch's fault counts, then decay heat and reset the counts.
func (mg *Migrator) epoch() {
	mg.Epochs.Inc()
	mg.plan()
	for _, h := range mg.heats {
		for i := range h {
			h[i] >>= 1
		}
	}
	for i := range mg.epochFaults {
		mg.epochFaults[i] = 0
	}
	mg.et.FireAfter(mg.cfg.Epoch)
}

// candidate is one migration-eligible page during planning.
type candidate struct {
	s    *paging.Space
	vpn  int64
	heat uint16
}

// plan detects per-node load imbalance over the finished epoch and
// queues migrations of the hottest pages away from the most loaded
// live node. Everything is a pure function of the epoch counters, the
// heat table, the owner table, and the health verdicts — identically
// seeded runs plan identically.
func (mg *Migrator) plan() {
	// Per-node loads over live nodes only.
	var total, max int64
	src, live := -1, 0
	for n := 0; n < mg.nodes; n++ {
		if !mg.m.NodeLive(n) {
			continue
		}
		live++
		f := mg.epochFaults[n]
		total += f
		if f > max {
			max, src = f, n
		}
	}
	if live < 2 || src < 0 || max < int64(mg.cfg.MinFaults) {
		return
	}
	// Trigger on max/mean >= Imbalance (cross-multiplied to stay exact).
	if float64(max)*float64(live) < mg.cfg.Imbalance*float64(total) {
		return
	}
	avg := total / int64(live)

	// Candidates: hot pages whose current primary is the loaded node
	// and that are not already queued.
	var cands []candidate
	for _, s := range mg.m.Spaces() {
		id := int(s.ID())
		if id >= len(mg.heats) || mg.heats[id] == nil {
			continue
		}
		h := mg.heats[id]
		reg := s.Region()
		if reg.Nodes() < 2 {
			continue
		}
		for vpn := int64(0); vpn < s.Pages(); vpn++ {
			if int(h[vpn]) < mg.cfg.HotThreshold {
				continue
			}
			if reg.NodeOf(vpn) != src {
				continue
			}
			if mg.queued[pageKey{s.ID(), vpn}] {
				continue
			}
			cands = append(cands, candidate{s: s, vpn: vpn, heat: h[vpn]})
		}
	}
	if len(cands) == 0 {
		return
	}
	// Hottest first; (space, vpn) ascending breaks ties, so the order
	// is a total one and the plan deterministic.
	sortCandidates(cands)

	// Greedy placement against projected loads: each move shifts the
	// page's estimated per-epoch demand (heat/8, floor 1) from src to
	// the least-projected-loaded eligible destination. Stop once src
	// is projected back to the mean, or MaxMoves is reached.
	proj := make([]int64, mg.nodes)
	copy(proj, mg.epochFaults)
	reserved := make([]int64, mg.nodes)
	now := mg.env.Now()
	moves := 0
	for _, c := range cands {
		if moves >= mg.cfg.MaxMoves || proj[src] <= avg {
			break
		}
		dst := mg.pickDst(c, proj, reserved)
		if dst < 0 {
			continue
		}
		est := int64(c.heat)/8 + 1
		proj[src] -= est
		proj[dst] += est
		reserved[dst] += paging.PageSize
		key := pageKey{c.s.ID(), c.vpn}
		mg.queued[key] = true
		mg.jobs = append(mg.jobs, job{s: c.s, vpn: c.vpn, from: src, to: dst, planned: now})
		mg.Planned.Inc()
		moves++
	}
	if mg.Pending() > 0 && mg.state == mgIdle && !mg.t.Armed() {
		mg.state = mgNext
		mg.t.FireAfter(0)
	}
}

// pickDst chooses the destination for a candidate: the live node with
// the lowest projected load that holds no copy of the page and has
// free capacity for it (net of this round's reservations). Lowest
// index breaks ties. Returns -1 when no node qualifies.
func (mg *Migrator) pickDst(c candidate, proj, reserved []int64) int {
	reg := c.s.Region()
	best := -1
	for n := 0; n < mg.nodes; n++ {
		if !mg.m.NodeLive(n) {
			continue
		}
		if ownsCopy(reg, c.vpn, n) {
			continue
		}
		if mg.mem.FreeCapacity(n)-reserved[n] < paging.PageSize {
			continue
		}
		if best < 0 || proj[n] < proj[best] {
			best = n
		}
	}
	return best
}

// ownsCopy reports whether node n holds any replica slot of the page.
func ownsCopy(reg *memnode.Region, vpn int64, n int) bool {
	for k := 0; k < reg.Replicas(); k++ {
		if reg.OwnerAt(vpn, k) == n {
			return true
		}
	}
	return false
}

// sortCandidates orders by heat descending, then (space id, vpn)
// ascending: a deterministic total order. Insertion sort keeps the
// planner dependency-free; candidate lists are MaxMoves-scale after
// the hot filter.
func sortCandidates(cs []candidate) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && candLess(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func candLess(a, b candidate) bool {
	if a.heat != b.heat {
		return a.heat > b.heat
	}
	if a.s.ID() != b.s.ID() {
		return a.s.ID() < b.s.ID()
	}
	return a.vpn < b.vpn
}

// ---- paced copy executor ----

func (mg *Migrator) fire() {
	switch mg.state {
	case mgNext:
		mg.startNext()
	case mgRead, mgWrite:
		mg.drain()
	case mgFlip:
		mg.tryFlip()
	}
}

// abortJob drops a job without flipping: its page keeps its owner and
// its charge, and the copy (if any) is abandoned — the region's single
// authoritative byte store makes abandonment free.
func (mg *Migrator) abortJob(j job) {
	key := pageKey{j.s.ID(), j.vpn}
	delete(mg.copying, key)
	delete(mg.queued, key)
	mg.Aborted.Inc()
}

// startNext revalidates and posts the next job's READ. A job planned
// under conditions that no longer hold — the owner moved (repair), a
// party died, the destination filled up or became an owner — aborts
// cleanly here.
func (mg *Migrator) startNext() {
	for mg.ji < len(mg.jobs) {
		j := mg.jobs[mg.ji]
		reg := j.s.Region()
		if reg.NodeOf(j.vpn) != j.from || !mg.m.NodeLive(j.from) || !mg.m.NodeLive(j.to) ||
			ownsCopy(reg, j.vpn, j.to) || mg.mem.FreeCapacity(j.to) < paging.PageSize {
			mg.abortJob(j)
			mg.ji++
			continue
		}
		remote := reg.SliceFor(j.vpn*paging.PageSize, paging.PageSize, j.from, mg.qps[j.from].Name())
		if mg.qps[j.from].PostRead(mg.buf, remote, mg) != nil {
			// Serial use cannot saturate the QP, but an errored one
			// (fault plans) can refuse the post: back off and retry.
			mg.Retries.Inc()
			mg.state = mgNext
			mg.t.FireAfter(mg.m.Config().RetryBackoff)
			return
		}
		mg.copying[pageKey{j.s.ID(), j.vpn}] = j.to
		mg.state = mgRead
		return
	}
	mg.state = mgIdle
	mg.jobs = mg.jobs[:0]
	mg.ji = 0
}

// drain consumes the in-flight verb's completion and advances the
// copy: READ done → post the WRITE; WRITE done → enter the flip phase.
// A dead node aborts the job (failover/repair own recovery); transient
// errors re-run the job from revalidation after a backoff.
func (mg *Migrator) drain() {
	cs := mg.cq.Poll(4)
	if len(cs) == 0 {
		return // spurious wake; the completion's Notify will re-arm us
	}
	for _, c := range cs {
		j := mg.jobs[mg.ji]
		if c.Err != nil {
			if c.Err == rdma.ErrNodeDead {
				mg.abortJob(j)
				mg.ji++
			} else {
				mg.Retries.Inc()
			}
			mg.state = mgNext
			mg.t.FireAfter(mg.m.Config().RetryBackoff)
			return
		}
		switch mg.state {
		case mgRead:
			if mg.qps[j.to].PostWrite(mg.sink, mg.buf, mg) != nil {
				mg.Retries.Inc()
				mg.state = mgNext
				mg.t.FireAfter(mg.m.Config().RetryBackoff)
				return
			}
			mg.state = mgWrite
		case mgWrite:
			mg.state = mgFlip
			mg.tryFlip()
			return
		}
	}
}

// tryFlip lands the owner flip once the page is quiescent. While a
// fetch or write-back is in flight the flip defers — re-armed after a
// backoff — so a demand fetch can never read the old copy after the
// flip, which is exactly what the generation oracle checks.
func (mg *Migrator) tryFlip() {
	j := mg.jobs[mg.ji]
	if j.s.InFlight(j.vpn) {
		mg.Deferred.Inc()
		mg.t.FireAfter(mg.m.Config().RetryBackoff)
		return // state stays mgFlip
	}
	reg := j.s.Region()
	key := pageKey{j.s.ID(), j.vpn}
	if reg.NodeOf(j.vpn) != j.from || !mg.m.NodeLive(j.to) ||
		ownsCopy(reg, j.vpn, j.to) || mg.mem.FreeCapacity(j.to) < paging.PageSize {
		// The world moved while the copy was in flight: abort cleanly.
		mg.abortJob(j)
		mg.ji++
		mg.state = mgNext
		mg.t.FireAfter(mg.gap)
		return
	}
	mg.gens[key]++
	delete(mg.copying, key)
	// The mutation (simcheckmutate builds only) drops the owner-table
	// flip after the copy: the charge moves but traffic keeps hitting
	// the old home — the migrate/owner-table oracle must catch it.
	if !simcheck.Mut("migrate_lost_owner") {
		reg.Reown(j.vpn, 0, j.to)
	}
	mg.mem.MoveCharge(j.from, j.to, paging.PageSize)
	mg.flips[key] = j.to
	if mg.OnFlip != nil {
		mg.OnFlip(j.s, j.vpn, j.from, j.to)
	}
	now := mg.env.Now()
	mg.Trace.Span(trace.KindMigrate, trace.TidMigrate,
		fmt.Sprintf("migrate %s:%d %d->%d", j.s.Name(), j.vpn, j.from, j.to),
		j.planned, now, nil)
	mg.PagesMoved.Inc()
	mg.BytesMoved.Add(paging.PageSize)
	mg.MigrLat.Record(int64(now - j.planned))
	mg.mix(uint64(j.s.ID()))
	mg.mix(uint64(j.vpn))
	mg.mix(uint64(j.from))
	mg.mix(uint64(j.to))
	mg.mix(uint64(now))
	if simcheck.On() && reg.NodeOf(j.vpn) != j.to {
		simcheck.Fail(simcheck.New("migrate/owner-table",
			"owner table does not answer the migration destination after the flip").
			With("space", j.s.Name()).With("page", j.vpn).
			With("owner", reg.NodeOf(j.vpn)).With("want", j.to))
	}
	delete(mg.queued, key)
	mg.ji++
	mg.state = mgNext
	mg.t.FireAfter(mg.gap)
}

func (mg *Migrator) mix(v uint64) {
	for i := 0; i < 8; i++ {
		mg.hash ^= (v >> (8 * i)) & 0xff
		mg.hash *= 1099511628211 // FNV-1a prime
	}
}
