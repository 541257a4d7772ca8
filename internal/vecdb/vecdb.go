// Package vecdb is the Faiss stand-in: an IVF-Flat vector similarity
// index (the paper's Faiss configuration, §5.2) whose inverted lists of
// raw float32 vectors live in paged remote memory. Centroids and list
// directories stay in core, as Faiss keeps its coarse quantizer.
//
// A query scans the NProbe nearest inverted lists, computing real L2
// distances over the paged vectors — thousands of page faults and
// milliseconds of compute per request, the tens-of-milliseconds regime
// Figure 13 evaluates. The dataset is synthetic clustered data standing
// in for BIGANN (see DESIGN.md's substitution table); k-means-lite
// builds the centroids at setup time.
package vecdb

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config sizes the index.
type Config struct {
	N      int // vectors
	Dim    int // dimensions (BIGANN SIFT: 128)
	NList  int // inverted lists (coarse centroids)
	NProbe int // lists scanned per query
	K      int // results returned

	// VecCost is the CPU charge per scanned vector (L2 over Dim floats);
	// CentroidCost per coarse-quantizer centroid.
	VecCost      sim.Time
	CentroidCost sim.Time
	ParseCost    sim.Time

	// Seed controls dataset generation.
	Seed int64
}

// DefaultConfig returns the scaled BIGANN-like setup.
func DefaultConfig(n int) Config {
	return Config{
		N:            n,
		Dim:          128,
		NList:        192,
		NProbe:       24,
		K:            10,
		VecCost:      350,
		CentroidCost: 350,
		ParseCost:    500,
		Seed:         99,
	}
}

// Index is the IVF-Flat index.
type Index struct {
	cfg Config
	mgr *paging.Manager

	space   *paging.Space
	recSize int64

	centroids [][]float32 // in-core coarse quantizer
	listOff   []int64     // byte offset of each list in the space
	listLen   []int32     // vectors per list

	// Mismatches counts queries whose verified sample disagreed with
	// brute force beyond tolerance (tests drive this).
	Mismatches stats.Counter
}

// Query is a request payload: a query vector.
type Query struct{ Vec []float32 }

// Neighbor is one search result.
type Neighbor struct {
	ID   uint32
	Dist float32
}

// Result is the response payload.
type Result struct{ Neighbors []Neighbor }

// Blueprint is the reusable, simulation-independent part of an index:
// the synthetic dataset, trained centroids, and list assignment.
// Building it is the expensive step; Instantiate then materializes an
// Index against a particular paging manager cheaply, so load sweeps can
// reuse one Blueprint across many fresh systems.
type Blueprint struct {
	cfg    Config
	vecs   [][]float32
	cents  [][]float32
	assign [][]uint32
}

// NewBlueprint synthesizes the clustered dataset (standing in for
// BIGANN, see DESIGN.md), trains centroids with k-means-lite, and
// assigns vectors to inverted lists.
func NewBlueprint(cfg Config) *Blueprint {
	if cfg.K <= 0 || cfg.NProbe <= 0 || cfg.NList <= 0 || cfg.NProbe > cfg.NList {
		panic(fmt.Sprintf("vecdb: bad config %+v", cfg))
	}
	rng := sim.NewRNG(cfg.Seed)
	bp := &Blueprint{cfg: cfg}

	// Synthetic clustered dataset: NList ground-truth centers with
	// Gaussian noise, mimicking BIGANN's clusterable SIFT descriptors.
	centers := make([][]float32, cfg.NList)
	for c := range centers {
		centers[c] = randVec(rng, cfg.Dim, 0, 1)
	}
	bp.vecs = make([][]float32, cfg.N)
	gen := make([]int, cfg.N) // generating center of each vector
	for i := range bp.vecs {
		gen[i] = rng.Intn(cfg.NList)
		c := centers[gen[i]]
		v := make([]float32, cfg.Dim)
		for d := range v {
			v[d] = c[d] + float32(rng.Normal(0, 0.08, -4))
		}
		bp.vecs[i] = v
	}

	// win[g] is the centroid that last won a vector generated by center
	// g: the nearest-centroid hint for the next such vector.
	win := make([]int, cfg.NList)
	bp.cents = kmeansLite(rng, bp.vecs, gen, win, cfg.NList, 3)

	bp.assign = make([][]uint32, cfg.NList)
	for i, v := range bp.vecs {
		best := nearest(v, bp.cents, win[gen[i]])
		win[gen[i]] = best
		bp.assign[best] = append(bp.assign[best], uint32(i))
	}
	return bp
}

// Instantiate materializes the blueprint as an Index over the given
// paging manager and memory node.
func (bp *Blueprint) Instantiate(mgr *paging.Manager, node memnode.Allocator) *Index {
	cfg := bp.cfg
	idx := &Index{cfg: cfg, mgr: mgr}
	idx.recSize = int64(8 + cfg.Dim*4) // u32 id + padding + floats
	idx.centroids = bp.cents

	// Lay lists out contiguously in the paged space.
	total := int64(cfg.N) * idx.recSize
	total = (total + paging.PageSize - 1) / paging.PageSize * paging.PageSize
	region := node.MustAlloc("vecdb", total)
	idx.space = mgr.NewSpace("vecdb", region)
	idx.listOff = make([]int64, cfg.NList)
	idx.listLen = make([]int32, cfg.NList)
	off := int64(0)
	for l, ids := range bp.assign {
		idx.listOff[l] = off
		idx.listLen[l] = int32(len(ids))
		for _, id := range ids {
			binary.LittleEndian.PutUint32(region.Data[off:off+4], id)
			for d := 0; d < cfg.Dim; d++ {
				bits := math.Float32bits(bp.vecs[id][d])
				binary.LittleEndian.PutUint32(region.Data[off+8+int64(d)*4:], bits)
			}
			off += idx.recSize
		}
	}
	return idx
}

// New builds an index in one step (blueprint + instantiate).
func New(mgr *paging.Manager, node memnode.Allocator, cfg Config) *Index {
	return NewBlueprint(cfg).Instantiate(mgr, node)
}

func randVec(rng *sim.RNG, dim int, lo, hi float64) []float32 {
	v := make([]float32, dim)
	for d := range v {
		v[d] = float32(lo + rng.Float64()*(hi-lo))
	}
	return v
}

// kmeansLite runs a few Lloyd iterations on a sample — enough for a
// usable coarse quantizer without minutes of setup. gen[i] is vecs[i]'s
// generating center and win the per-center hint table NewBlueprint
// keeps: iteration 0 takes its nearest-centroid hint from win, later
// iterations from the sample point's previous assignment.
func kmeansLite(rng *sim.RNG, vecs [][]float32, gen, win []int, k, iters int) [][]float32 {
	sample, sgen := vecs, gen
	if len(sample) > 20000 {
		sample, sgen = make([][]float32, 20000), make([]int, 20000)
		for i := range sample {
			j := rng.Intn(len(vecs))
			sample[i], sgen[i] = vecs[j], gen[j]
		}
	}
	dim := len(vecs[0])
	cents := make([][]float32, k)
	for c := range cents {
		src := sample[rng.Intn(len(sample))]
		cents[c] = append([]float32(nil), src...)
	}
	assign := make([]int, len(sample))
	for it := 0; it < iters; it++ {
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, v := range sample {
			guess := assign[i]
			if it == 0 {
				guess = win[sgen[i]]
			}
			best := nearest(v, cents, guess)
			assign[i], win[sgen[i]] = best, best
			counts[best]++
			for d := range v {
				sums[best][d] += float64(v[d])
			}
		}
		for c := range cents {
			if counts[c] == 0 {
				cents[c] = append([]float32(nil), sample[rng.Intn(len(sample))]...)
				continue
			}
			for d := range cents[c] {
				cents[c][d] = float32(sums[c][d] / float64(counts[c]))
			}
		}
	}
	return cents
}

// l2 is squared Euclidean distance. It is the reference the exact
// kernels below must reproduce bit for bit, and the distance the
// verification paths (SearchDirect, BruteForce) use.
func l2(a, b []float32) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// l2Bounded is l2 that gives up early. It reports (l2(a, b), true) when
// that distance is within bound — at most bound if inclusive, below it
// otherwise — and (partial sum, false) when it is not. The sum is built
// in l2's order with l2's expression and checked every 8 dimensions;
// every added term is ≥ 0 and round-to-nearest addition is monotone, so
// the finished sum is never below a partial one and giving up is exact.
func l2Bounded(a, b []float32, bound float32, inclusive bool) (float32, bool) {
	b = b[:len(a)]
	var s float32
	for i := 0; i < len(a); i += 8 {
		end := min(i+8, len(a))
		for j := i; j < end; j++ {
			d := a[j] - b[j]
			s += d * d
		}
		if s > bound || (s == bound && !inclusive) {
			return s, false
		}
	}
	return s, true
}

// l2BoundedRec is l2Bounded against a vector still encoded as
// little-endian float32 bits, as it sits in an inverted-list record:
// each dimension is decoded only when the sum reaches it.
func l2BoundedRec(q []float32, enc []byte, bound float32, inclusive bool) (float32, bool) {
	enc = enc[:4*len(q)]
	var s float32
	for i := 0; i < len(q); i += 8 {
		end := min(i+8, len(q))
		for j := i; j < end; j++ {
			d := q[j] - math.Float32frombits(binary.LittleEndian.Uint32(enc[4*j:]))
			s += d * d
		}
		if s > bound || (s == bound && !inclusive) {
			return s, false
		}
	}
	return s, true
}

// nearest returns the index of the centroid nearest to v: the
// lexicographic minimum of (l2 distance, index), which is what an
// ascending scan keeping the first strict minimum returns. guess may be
// any index; the better it is, the sooner l2Bounded gives up on the
// other centroids.
func nearest(v []float32, cents [][]float32, guess int) int {
	best, bd := guess, l2(v, cents[guess])
	for c := range cents {
		if c == guess {
			continue
		}
		// On a tie the lower index wins: it may equal bd, a higher one
		// must beat it.
		if d, ok := l2Bounded(v, cents[c], bd, c < best); ok {
			best, bd = c, d
		}
	}
	return best
}

// SpaceSize returns the inverted-list store size in bytes.
func (idx *Index) SpaceSize() int64 { return idx.space.Size() }

// WarmCache preloads list prefixes up to the frame pool's steady state.
func (idx *Index) WarmCache() {
	cfg := idx.mgr.Config()
	frames := int64(float64(idx.mgr.TotalFrames()) * (1 - cfg.ReclaimThreshold - 0.02))
	bytes := frames * paging.PageSize
	if bytes > idx.space.Size() {
		bytes = idx.space.Size()
	}
	if bytes > 0 {
		idx.space.Preload(0, bytes)
	}
}

// resultHeap is a max-heap by distance (so the worst of the best K is on
// top and can be displaced).
type resultHeap []Neighbor

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return h[i].Dist > h[j].Dist }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Neighbor)) }
func (h *resultHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Search runs the IVF-Flat query under the given execution context.
func (idx *Index) Search(ctx workload.Ctx, q []float32) Result {
	cfg := &idx.cfg
	ctx.Compute(cfg.ParseCost)

	// Coarse quantizer: in-core centroid scan.
	ctx.Compute(sim.Time(len(idx.centroids)) * cfg.CentroidCost)
	type cd struct {
		c int
		d float32
	}
	order := make([]cd, len(idx.centroids))
	for c := range idx.centroids {
		order[c] = cd{c, l2(q, idx.centroids[c])}
	}
	// Partial selection of NProbe nearest lists.
	for i := 0; i < cfg.NProbe; i++ {
		min := i
		for j := i + 1; j < len(order); j++ {
			if order[j].d < order[min].d {
				min = j
			}
		}
		order[i], order[min] = order[min], order[i]
	}

	// Once the heap holds K results, a vector must beat the worst of
	// them, so the kernel may give up on it as soon as its partial
	// distance reaches h[0].Dist. The simulated charges are per vector
	// and do not depend on the distance.
	h := make(resultHeap, 0, cfg.K+1)
	rec := make([]byte, idx.recSize)
	for p := 0; p < cfg.NProbe; p++ {
		l := order[p].c
		off := idx.listOff[l]
		for i := int32(0); i < idx.listLen[l]; i++ {
			if i%32 == 0 {
				ctx.Probe()
			}
			ctx.Compute(cfg.VecCost)
			idx.space.Load(ctx, off, rec)
			off += idx.recSize
			id := binary.LittleEndian.Uint32(rec[:4])
			if len(h) < cfg.K {
				dist, _ := l2BoundedRec(q, rec[8:], float32(math.Inf(1)), true)
				heap.Push(&h, Neighbor{ID: id, Dist: dist})
			} else if dist, ok := l2BoundedRec(q, rec[8:], h[0].Dist, false); ok {
				h[0] = Neighbor{ID: id, Dist: dist}
				heap.Fix(&h, 0)
			}
		}
	}
	// Extract ascending by distance.
	out := make([]Neighbor, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Neighbor)
	}
	return Result{Neighbors: out}
}

// SearchDirect runs the IVF-Flat query against current state without
// simulated timing (verification only): the same algorithm as Search,
// reading through ReadDirect, but with a full decode and plain l2, so it
// checks Search's early-abandon kernel rather than sharing it.
func (idx *Index) SearchDirect(q []float32) Result {
	cfg := &idx.cfg
	type cd struct {
		c int
		d float32
	}
	order := make([]cd, len(idx.centroids))
	for c := range idx.centroids {
		order[c] = cd{c, l2(q, idx.centroids[c])}
	}
	for i := 0; i < cfg.NProbe; i++ {
		min := i
		for j := i + 1; j < len(order); j++ {
			if order[j].d < order[min].d {
				min = j
			}
		}
		order[i], order[min] = order[min], order[i]
	}
	h := make(resultHeap, 0, cfg.K+1)
	rec := make([]byte, idx.recSize)
	vec := make([]float32, cfg.Dim)
	for p := 0; p < cfg.NProbe; p++ {
		l := order[p].c
		off := idx.listOff[l]
		for i := int32(0); i < idx.listLen[l]; i++ {
			idx.space.ReadDirect(off, rec)
			id := binary.LittleEndian.Uint32(rec[:4])
			for d := 0; d < cfg.Dim; d++ {
				vec[d] = math.Float32frombits(binary.LittleEndian.Uint32(rec[8+d*4:]))
			}
			dist := l2(q, vec)
			if len(h) < cfg.K {
				heap.Push(&h, Neighbor{ID: id, Dist: dist})
			} else if dist < h[0].Dist {
				h[0] = Neighbor{ID: id, Dist: dist}
				heap.Fix(&h, 0)
			}
			off += idx.recSize
		}
	}
	out := make([]Neighbor, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Neighbor)
	}
	return Result{Neighbors: out}
}

// BruteForce computes the exact top-K by scanning the backing store
// directly (verification only; no simulated cost).
func (idx *Index) BruteForce(q []float32) Result {
	h := make(resultHeap, 0, idx.cfg.K+1)
	rec := make([]byte, idx.recSize)
	vec := make([]float32, idx.cfg.Dim)
	for l := range idx.listOff {
		off := idx.listOff[l]
		for i := int32(0); i < idx.listLen[l]; i++ {
			idx.space.ReadDirect(off, rec)
			id := binary.LittleEndian.Uint32(rec[:4])
			for d := 0; d < idx.cfg.Dim; d++ {
				vec[d] = math.Float32frombits(binary.LittleEndian.Uint32(rec[8+d*4:]))
			}
			dist := l2(q, vec)
			if len(h) < idx.cfg.K {
				heap.Push(&h, Neighbor{ID: id, Dist: dist})
			} else if dist < h[0].Dist {
				h[0] = Neighbor{ID: id, Dist: dist}
				heap.Fix(&h, 0)
			}
			off += idx.recSize
		}
	}
	out := make([]Neighbor, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Neighbor)
	}
	return Result{Neighbors: out}
}

// SampleVector reads stored vector id (verification/query generation).
func (idx *Index) SampleVector(id int) []float32 {
	// Locate by scanning the directory; queries only need a few samples.
	rec := make([]byte, idx.recSize)
	for l := range idx.listOff {
		off := idx.listOff[l]
		for i := int32(0); i < idx.listLen[l]; i++ {
			idx.space.ReadDirect(off, rec[:4])
			if binary.LittleEndian.Uint32(rec[:4]) == uint32(id) {
				idx.space.ReadDirect(off, rec)
				v := make([]float32, idx.cfg.Dim)
				for d := 0; d < idx.cfg.Dim; d++ {
					v[d] = math.Float32frombits(binary.LittleEndian.Uint32(rec[8+d*4:]))
				}
				return v
			}
			off += idx.recSize
		}
	}
	return nil
}

// Name implements workload.App.
func (idx *Index) Name() string { return fmt.Sprintf("faiss-ivfflat-%dk", idx.cfg.N/1000) }

// NextRequest implements workload.App: a perturbed copy of a random
// stored vector, as BIGANN's query set is drawn from the same
// distribution as the base set.
func (idx *Index) NextRequest(rng *sim.RNG) (any, int) {
	l := rng.Intn(idx.cfg.NList)
	for idx.listLen[l] == 0 {
		l = rng.Intn(idx.cfg.NList)
	}
	i := rng.Intn(int(idx.listLen[l]))
	off := idx.listOff[l] + int64(i)*idx.recSize
	rec := make([]byte, idx.recSize)
	idx.space.ReadDirect(off, rec)
	q := make([]float32, idx.cfg.Dim)
	for d := 0; d < idx.cfg.Dim; d++ {
		q[d] = math.Float32frombits(binary.LittleEndian.Uint32(rec[8+d*4:])) +
			float32(rng.Normal(0, 0.02, -1))
	}
	return Query{Vec: q}, 64 + idx.cfg.Dim*4
}

// Handler implements workload.App.
func (idx *Index) Handler() workload.Handler {
	return func(ctx workload.Ctx, payload any) (any, int) {
		q := payload.(Query)
		r := idx.Search(ctx, q.Vec)
		return r, 64 + len(r.Neighbors)*8
	}
}
