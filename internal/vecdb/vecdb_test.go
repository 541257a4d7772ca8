package vecdb

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
)

type ctxThread struct {
	env  *sim.Env
	proc *sim.Proc
	mgr  *paging.Manager
	qp   *rdma.QP
	gate *sim.Gate
}

func (t *ctxThread) Proc() *sim.Proc      { return t.proc }
func (t *ctxThread) QP(node int) *rdma.QP { return t.qp }
func (t *ctxThread) Rand() *sim.RNG       { return t.env.Rand() }
func (t *ctxThread) Compute(d sim.Time)   { t.proc.Sleep(d) }
func (t *ctxThread) Probe()               {}
func (t *ctxThread) CriticalEnter()       {}
func (t *ctxThread) CriticalExit()        {}
func (t *ctxThread) Block(enqueue func(wake func())) {
	done := false
	enqueue(func() {
		done = true
		t.gate.Wake()
	})
	for !done {
		t.gate.Wait(t.proc)
	}
}

func (t *ctxThread) WaitPage(s *paging.Space, vpn int64) {
	for !s.Resident(vpn) {
		if t.mgr.RequestPage(t, s, vpn, func(error) { t.gate.Wake() }, true) {
			return
		}
		t.gate.Wait(t.proc)
	}
}

func smallConfig() Config {
	cfg := DefaultConfig(3000)
	cfg.Dim = 32
	cfg.NList = 16
	cfg.NProbe = 6
	cfg.K = 5
	return cfg
}

func newRig(t *testing.T, cfg Config, localFrac float64) (*sim.Env, *paging.Manager, *Index, *rdma.QP) {
	t.Helper()
	env := sim.NewEnv(23)
	probeEnv := sim.NewEnv(23)
	probe := New(paging.NewManager(probeEnv, paging.DefaultConfig(paging.PageSize)), memnode.New(4<<30), cfg)
	local := int64(localFrac * float64(probe.SpaceSize()))
	if local < 16*paging.PageSize {
		local = 16 * paging.PageSize
	}
	mgr := paging.NewManager(env, paging.DefaultConfig(local))
	idx := New(mgr, memnode.New(4<<30), cfg)
	idx.WarmCache()

	nic := rdma.NewNIC(env, rdma.DefaultConfig())
	cq := rdma.NewCQ("t")
	qp := nic.CreateQP("t", cq)
	cq.Notify = func() {
		for _, c := range cq.Poll(64) {
			mgr.Complete(c.Cookie.(*paging.Fetch), c.Err)
		}
	}
	rcq := rdma.NewCQ("reclaim")
	mgr.StartReclaimer(nic.CreateQP("reclaim", rcq), rcq)
	return env, mgr, idx, qp
}

func TestIndexCoversAllVectors(t *testing.T) {
	cfg := smallConfig()
	env := sim.NewEnv(1)
	idx := New(paging.NewManager(env, paging.DefaultConfig(64*paging.PageSize)), memnode.New(4<<30), cfg)
	var total int32
	for _, n := range idx.listLen {
		total += n
	}
	if int(total) != cfg.N {
		t.Fatalf("lists cover %d vectors, want %d", total, cfg.N)
	}
}

func TestSearchFindsPerturbedSelf(t *testing.T) {
	cfg := smallConfig()
	env, mgr, idx, qp := newRig(t, cfg, 0.25)
	hits := 0
	env.Go("driver", func(p *sim.Proc) {
		ctx := &ctxThread{env: env, proc: p, mgr: mgr, qp: qp, gate: sim.NewGate(env)}
		rng := sim.NewRNG(3)
		for trial := 0; trial < 20; trial++ {
			payload, _ := idx.NextRequest(rng)
			q := payload.(Query)
			res := idx.Search(ctx, q.Vec)
			if len(res.Neighbors) != cfg.K {
				t.Errorf("got %d neighbors, want %d", len(res.Neighbors), cfg.K)
				return
			}
			// Results must be sorted ascending by distance.
			for i := 1; i < len(res.Neighbors); i++ {
				if res.Neighbors[i].Dist < res.Neighbors[i-1].Dist {
					t.Error("results not sorted")
					return
				}
			}
			// The perturbed source vector should usually be the nearest.
			bf := idx.BruteForce(q.Vec)
			if res.Neighbors[0].ID == bf.Neighbors[0].ID {
				hits++
			}
		}
	})
	env.Run(sim.Seconds(600))
	// IVF with NProbe=6/16 lists: top-1 should match brute force most
	// of the time on clustered data.
	if hits < 15 {
		t.Fatalf("top-1 agreement with brute force = %d/20", hits)
	}
}

func TestRecallAgainstBruteForce(t *testing.T) {
	cfg := smallConfig()
	env, mgr, idx, qp := newRig(t, cfg, 0.25)
	var recallSum float64
	const trials = 10
	env.Go("driver", func(p *sim.Proc) {
		ctx := &ctxThread{env: env, proc: p, mgr: mgr, qp: qp, gate: sim.NewGate(env)}
		rng := sim.NewRNG(7)
		for trial := 0; trial < trials; trial++ {
			payload, _ := idx.NextRequest(rng)
			q := payload.(Query)
			approx := idx.Search(ctx, q.Vec)
			exact := idx.BruteForce(q.Vec)
			got := map[uint32]bool{}
			for _, n := range approx.Neighbors {
				got[n.ID] = true
			}
			match := 0
			for _, n := range exact.Neighbors {
				if got[n.ID] {
					match++
				}
			}
			recallSum += float64(match) / float64(cfg.K)
		}
	})
	env.Run(sim.Seconds(600))
	recall := recallSum / trials
	if recall < 0.6 {
		t.Fatalf("recall@%d = %.2f, want ≥ 0.6 for clustered data", cfg.K, recall)
	}
}

func TestSearchFaultsAndCosts(t *testing.T) {
	cfg := smallConfig()
	env, mgr, idx, qp := newRig(t, cfg, 0.2)
	var faults int64
	var service sim.Time
	env.Go("driver", func(p *sim.Proc) {
		ctx := &ctxThread{env: env, proc: p, mgr: mgr, qp: qp, gate: sim.NewGate(env)}
		rng := sim.NewRNG(5)
		payload, _ := idx.NextRequest(rng)
		start := p.Now()
		idx.Search(ctx, payload.(Query).Vec)
		service = p.Now() - start
		faults = mgr.Faults.Value()
	})
	env.Run(sim.Seconds(600))
	if faults == 0 {
		t.Fatal("search did not fault at 20% residency")
	}
	// Scan ≈ N/NList×NProbe vectors with VecCost each, plus faults:
	// service must be far beyond a simple request's microseconds.
	if service < sim.Micros(100) {
		t.Fatalf("search service time %v implausibly small", service)
	}
}

func TestSampleVector(t *testing.T) {
	cfg := smallConfig()
	env := sim.NewEnv(1)
	idx := New(paging.NewManager(env, paging.DefaultConfig(64*paging.PageSize)), memnode.New(4<<30), cfg)
	v := idx.SampleVector(100)
	if v == nil || len(v) != cfg.Dim {
		t.Fatal("sample vector 100 not found")
	}
	if idx.SampleVector(cfg.N+5) != nil {
		t.Fatal("found nonexistent vector")
	}
}

// blueprintFingerprint is FNV-64a over the centroids' float bits, then
// each inverted list's length and vector ids, all little-endian uint32.
func blueprintFingerprint(bp *Blueprint) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(buf[:], x)
		h.Write(buf[:])
	}
	for _, c := range bp.cents {
		for _, x := range c {
			put(math.Float32bits(x))
		}
	}
	for _, ids := range bp.assign {
		put(uint32(len(ids)))
		for _, id := range ids {
			put(id)
		}
	}
	return h.Sum64()
}

// TestBlueprintFingerprint pins the index layout fig13 and the vecdb-scan
// benchmark build: the trained centroids and every list's membership and
// order. The value was computed with the plain full-distance argmin scans
// that the early-abandon kernel replaced, so the kernel, the tie rule and
// the hints must reproduce them bit for bit.
func TestBlueprintFingerprint(t *testing.T) {
	const want = 0x65cc28d184494586
	if got := blueprintFingerprint(NewBlueprint(DefaultConfig(30_000))); got != want {
		t.Fatalf("blueprint fingerprint %#x, want %#x", got, want)
	}
}

// scanNearest is the plain ascending argmin nearest must match: the
// first centroid with the strictly smallest full distance.
func scanNearest(v []float32, cents [][]float32) int {
	best, bd := 0, float32(math.MaxFloat32)
	for c := range cents {
		if d := l2(v, cents[c]); d < bd {
			best, bd = c, d
		}
	}
	return best
}

func TestNearestMatchesScan(t *testing.T) {
	for _, dim := range []int{5, 13, 128} {
		rng := sim.NewRNG(int64(dim))
		cents := make([][]float32, 24)
		for c := range cents {
			cents[c] = randVec(rng, dim, 0, 1)
		}
		// Exact ties: duplicated centroids, on both sides of each other.
		cents[9] = append([]float32(nil), cents[2]...)
		cents[17] = append([]float32(nil), cents[2]...)
		cents[20] = append([]float32(nil), cents[11]...)
		points := [][]float32{cents[2], cents[11], cents[20]}
		for i := 0; i < 40; i++ {
			points = append(points, randVec(rng, dim, 0, 1))
		}
		for _, c := range []int{2, 11} { // near a duplicated pair
			v := append([]float32(nil), cents[c]...)
			v[0] += 0.01
			points = append(points, v)
		}
		for i, v := range points {
			want := scanNearest(v, cents)
			for guess := range cents {
				if got := nearest(v, cents, guess); got != want {
					t.Fatalf("dim %d point %d guess %d: nearest %d, scan %d", dim, i, guess, got, want)
				}
			}
		}
	}
}

// TestL2BoundedExact checks both kernels against l2: within the bound
// they return l2's exact bits, and the accept decision agrees with the
// full distance, including a bound equal to it.
func TestL2BoundedExact(t *testing.T) {
	rng := sim.NewRNG(4)
	for _, dim := range []int{1, 7, 8, 13, 128} {
		for trial := 0; trial < 50; trial++ {
			a, b := randVec(rng, dim, 0, 1), randVec(rng, dim, 0, 1)
			enc := make([]byte, 4*dim)
			for d, x := range b {
				binary.LittleEndian.PutUint32(enc[4*d:], math.Float32bits(x))
			}
			full := l2(a, b)
			for _, bound := range []float32{0, full / 2, math.Nextafter32(full, 0), full, math.Nextafter32(full, 10), 2 * full} {
				for _, inclusive := range []bool{false, true} {
					want := full < bound || (inclusive && full == bound)
					d1, ok1 := l2Bounded(a, b, bound, inclusive)
					d2, ok2 := l2BoundedRec(a, enc, bound, inclusive)
					if ok1 != want || ok2 != want {
						t.Fatalf("dim %d bound %v inclusive %v: accepted %v/%v, want %v (l2 %v)", dim, bound, inclusive, ok1, ok2, want, full)
					}
					if want && (math.Float32bits(d1) != math.Float32bits(full) || math.Float32bits(d2) != math.Float32bits(full)) {
						t.Fatalf("dim %d: bounded distances %v/%v, l2 %v", dim, d1, d2, full)
					}
				}
			}
		}
	}
}

// TestSearchMatchesSearchDirect checks the early-abandon query scan
// against SearchDirect, which keeps the full decode and plain l2: the
// same neighbors in the same order with the same distance bits. K=300
// exceeds every list, and K=2000 exceeds all NProbe lists together, so
// the heap fills across lists or never fills.
func TestSearchMatchesSearchDirect(t *testing.T) {
	for _, k := range []int{1, 5, 300, 2000} {
		cfg := smallConfig()
		cfg.K = k
		env, mgr, idx, qp := newRig(t, cfg, 0.25)
		const queries = 100
		done := 0
		env.Go("driver", func(p *sim.Proc) {
			ctx := &ctxThread{env: env, proc: p, mgr: mgr, qp: qp, gate: sim.NewGate(env)}
			rng := sim.NewRNG(int64(k))
			for trial := 0; trial < queries; trial++ {
				payload, _ := idx.NextRequest(rng)
				q := payload.(Query).Vec
				got, want := idx.Search(ctx, q), idx.SearchDirect(q)
				if len(got.Neighbors) != len(want.Neighbors) {
					t.Errorf("K=%d query %d: %d neighbors, SearchDirect %d", k, trial, len(got.Neighbors), len(want.Neighbors))
					return
				}
				for i, n := range got.Neighbors {
					w := want.Neighbors[i]
					if n.ID != w.ID || math.Float32bits(n.Dist) != math.Float32bits(w.Dist) {
						t.Errorf("K=%d query %d rank %d: %+v, SearchDirect %+v", k, trial, i, n, w)
						return
					}
				}
				done++
			}
		})
		env.Run(sim.Seconds(600))
		if done != queries {
			t.Fatalf("K=%d: %d of %d queries compared", k, done, queries)
		}
	}
}
