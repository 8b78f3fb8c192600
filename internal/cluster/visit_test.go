package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"

	msbfs "repro"
)

// visitTally records a visit stream as per-(source, vertex) call counts
// and depths, so two streams compare as multisets of (source, vertex,
// depth).
type visitTally struct {
	n            int
	count, depth []int32
}

func newVisitTally(sources, n int) *visitTally {
	return &visitTally{n: n, count: make([]int32, sources*n), depth: make([]int32, sources*n)}
}

func (t *visitTally) add(src, v, depth int) {
	i := src*t.n + v
	t.count[i]++
	t.depth[i] = int32(depth)
}

// diff returns the first (source, vertex) whose calls differ, or "".
func (t *visitTally) diff(want *visitTally) string {
	for i := range want.count {
		if t.count[i] != want.count[i] || (want.count[i] > 0 && t.depth[i] != want.depth[i]) {
			return fmt.Sprintf("source %d vertex %d: %d calls at depth %d, want %d at depth %d",
				i/t.n, i%t.n, t.count[i], t.depth[i], want.count[i], want.depth[i])
		}
	}
	return ""
}

// chordRing is a 190-vertex ring with one chord per vertex: small enough
// that a 4-way partition leaves the last shard an empty range.
func chordRing() *msbfs.Graph {
	const n = 190
	var edges []msbfs.Edge
	for v := 0; v < n; v++ {
		edges = append(edges,
			msbfs.Edge{U: uint32(v), V: uint32((v + 1) % n)},
			msbfs.Edge{U: uint32(v), V: uint32((v*7 + 3) % n)})
	}
	return msbfs.NewGraph(n, edges)
}

// TestClusterVisitStreamMatchesLocal compares the multiset of (source,
// vertex, depth) visits RunBatch delivers with the local
// MultiBFSVisitor's over 1 to 4 shards (one configuration with an empty
// shard), batch words 1, 2 and 8, widths that are not multiples of 64,
// MaxDepth 0, 1 and 3, and RecordLevels on and off. It also pins the
// documented order: within a batch, visits ascend by (depth, vertex,
// slot).
func TestClusterVisitStreamMatchesLocal(t *testing.T) {
	graphs := []struct {
		name string
		g    *msbfs.Graph
	}{
		{"kron", msbfs.GenerateKronecker(9, 6, 3)},
		{"ring", chordRing()},
	}
	depths := []int{0, 1, 3}
	for shards := 1; shards <= 4; shards++ {
		ip := startCluster(t, shards, CoordinatorOptions{})
		for gi, gr := range graphs {
			rg, err := ip.Coord.LoadGraph(context.Background(), gr.name, gr.g, 2)
			if err != nil {
				t.Fatalf("LoadGraph: %v", err)
			}
			if shards == 4 && gr.name == "ring" && rg.part.Len(3) != 0 {
				t.Fatalf("ring over 4 shards: last shard owns %d vertices, want an empty range", rg.part.Len(3))
			}
			idx := 0
			for _, bw := range []int{1, 2, 8} {
				for _, width := range []int{70, 511} {
					opt := msbfs.Options{Workers: 2, BatchWords: bw,
						MaxDepth: depths[idx%3], RecordLevels: idx%2 == 0}
					idx++
					name := fmt.Sprintf("shards=%d/%s/bw=%d/k=%d/depth=%d/levels=%v",
						shards, gr.name, bw, width, opt.MaxDepth, opt.RecordLevels)
					sources := gr.g.RandomSources(width, uint64(100*gi+idx))
					checkVisitStream(t, name, gr.g, rg, sources, opt)
				}
			}
		}
	}
}

func checkVisitStream(t *testing.T, name string, g *msbfs.Graph, rg *RemoteGraph, sources []int, opt msbfs.Options) {
	t.Helper()
	n := g.NumVertices()
	want := newVisitTally(len(sources), n)
	var mu sync.Mutex
	local := g.MultiBFSVisitor(sources, opt, func(_, src, v, depth int) {
		mu.Lock()
		want.add(src, v, depth)
		mu.Unlock()
	})

	got := newVisitTally(len(sources), n)
	perBatch := 64 * opt.Normalize().BatchWords
	last := [4]int{-1}
	var orderErr string
	res, err := rg.RunBatch(context.Background(), sources, opt, func(workerID, src, v, depth int) {
		got.add(src, v, depth)
		key := [4]int{src / perBatch, depth, v, src}
		if key[0] == last[0] && !lessKey(last, key) && orderErr == "" {
			orderErr = fmt.Sprintf("visit %v after %v", key, last)
		}
		if workerID != 0 && orderErr == "" {
			orderErr = fmt.Sprintf("visit on worker %d", workerID)
		}
		last = key
	})
	if err != nil {
		t.Fatalf("%s: RunBatch: %v", name, err)
	}
	if orderErr != "" {
		t.Errorf("%s: visit order: %s", name, orderErr)
	}
	if d := got.diff(want); d != "" {
		t.Fatalf("%s: visit stream differs from local: %s", name, d)
	}
	if res.VisitedStates != local.VisitedStates {
		t.Errorf("%s: VisitedStates=%d, local %d", name, res.VisitedStates, local.VisitedStates)
	}
	if !opt.RecordLevels {
		if res.Levels != nil {
			t.Errorf("%s: Levels recorded without RecordLevels", name)
		}
		return
	}
	for i := range local.Levels {
		for v, lv := range local.Levels[i] {
			if res.Levels[i][v] != lv {
				t.Fatalf("%s: source %d vertex %d: level %d, local %d", name, i, v, res.Levels[i][v], lv)
			}
		}
	}
}

func lessKey(a, b [4]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
