package vecdb

import (
	"sync"
	"testing"
)

var (
	benchBP     *Blueprint
	benchBPOnce sync.Once
	bpSink      *Blueprint
	nearestSink int
)

// benchBlueprint is the DefaultConfig(30_000) blueprint fig13 -short and
// the vecdb-scan workload build, made once per test binary.
func benchBlueprint() *Blueprint {
	benchBPOnce.Do(func() { benchBP = NewBlueprint(DefaultConfig(30_000)) })
	return benchBP
}

// BenchmarkVecdbBlueprint is the index set-up: dataset synthesis,
// k-means-lite training and list assignment.
func BenchmarkVecdbBlueprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bpSink = NewBlueprint(DefaultConfig(30_000))
	}
}

// BenchmarkVecdbNearest is one nearest-centroid search (192 centroids,
// 128 dimensions) per op over the stored vectors. "hinted" passes each
// vector's own list, as a k-means iteration sees once assignments settle;
// "unhinted" passes centroid 0.
func BenchmarkVecdbNearest(b *testing.B) {
	bp := benchBlueprint()
	list := make([]int, len(bp.vecs))
	for l, ids := range bp.assign {
		for _, id := range ids {
			list[id] = l
		}
	}
	run := func(b *testing.B, hint func(i int) int) {
		for i := 0; i < b.N; i++ {
			j := i % len(bp.vecs)
			nearestSink = nearest(bp.vecs[j], bp.cents, hint(j))
		}
	}
	b.Run("hinted", func(b *testing.B) { run(b, func(i int) int { return list[i] }) })
	b.Run("unhinted", func(b *testing.B) { run(b, func(int) int { return 0 }) })
}
