package msbfs_test

import (
	"fmt"
	"testing"

	msbfs "repro"
	"repro/internal/dyngraph"
	"repro/internal/graph"
)

// The level-count analytics (Closeness, NeighborhoodSizes, Eccentricities)
// read per-(source, depth) discovery counts out of the MS-PBFS kernel. This
// differential suite pins them against per-source SequentialBFS level
// arrays across every kernel path the counts are taken on: narrow and wide
// rows, one to three workers, top-down resolve and both bottom-up sweeps,
// hop limits, and a dynamic-graph overlay.

// levelAggregates is what a reference level array says the analytics
// should return for one source, counting only vertices within maxDepth
// hops when maxDepth > 0.
type levelAggregates struct {
	sum, reached int64
	ecc          int32
}

func aggregateLevels(levels []int32, maxDepth int) levelAggregates {
	var a levelAggregates
	for _, l := range levels {
		if l == msbfs.NoLevel || (maxDepth > 0 && int(l) > maxDepth) {
			continue
		}
		a.sum += int64(l)
		a.reached++
		if l > a.ecc {
			a.ecc = l
		}
	}
	return a
}

// closenessOf applies the Wasserman-Faust formula Graph.Closeness
// documents, evaluated in the same order so results compare bit for bit.
func closenessOf(a levelAggregates, n int) float64 {
	if a.reached <= 1 || a.sum == 0 {
		return 0
	}
	r := float64(a.reached - 1)
	return r / float64(a.sum) * r / float64(n-1)
}

// levelCountGraph is a small-world graph with an isolated vertex appended,
// so source sets can include a vertex that reaches nothing.
func levelCountGraph() (*msbfs.Graph, []msbfs.Edge) {
	base := msbfs.GenerateSocial(700, 11)
	n := base.NumVertices()
	var edges []msbfs.Edge
	for v := 0; v < n; v++ {
		for _, u := range base.Neighbors(v) {
			if int(u) > v {
				edges = append(edges, msbfs.Edge{U: graph.VertexID(v), V: u})
			}
		}
	}
	return msbfs.NewGraph(n+1, edges), edges
}

// levelCountSources mixes random sources with duplicates and the isolated
// vertex, enough of them to span several batches at BatchWords 1.
func levelCountSources(g *msbfs.Graph) []int {
	isolated := g.NumVertices() - 1
	sources := g.RandomSources(150, 5)
	sources = append(sources, sources[0], sources[3], isolated, sources[0], isolated)
	return sources
}

func checkLevelAnalytics(t *testing.T, name string, g, ref *msbfs.Graph, sources []int, opt msbfs.Options) {
	t.Helper()
	n := g.NumVertices()
	want := make([]levelAggregates, len(sources))
	full := make([]levelAggregates, len(sources))
	for i, s := range sources {
		levels := ref.SequentialBFS(s).Levels
		want[i] = aggregateLevels(levels, opt.MaxDepth)
		full[i] = aggregateLevels(levels, 0)
	}
	cl := g.Closeness(sources, opt)
	ecc := g.Eccentricities(sources, opt)
	hops := opt.MaxDepth
	if hops == 0 {
		hops = n // unbounded radius
	}
	nopt := opt
	nopt.MaxDepth = 0
	sizes := g.NeighborhoodSizes(sources, hops, nopt)
	for i, s := range sources {
		if got, w := cl[i], closenessOf(want[i], n); got != w {
			t.Fatalf("%s: closeness of source #%d (%d) = %v, sequential BFS gives %v", name, i, s, got, w)
		}
		if ecc[i] != want[i].ecc {
			t.Fatalf("%s: eccentricity of source #%d (%d) = %d, sequential BFS gives %d", name, i, s, ecc[i], want[i].ecc)
		}
		if sizes[i] != want[i].reached {
			t.Fatalf("%s: %d-hop neighborhood of source #%d (%d) = %d, sequential BFS gives %d",
				name, hops, i, s, sizes[i], want[i].reached)
		}
	}
}

func TestLevelCountAnalyticsMatchSequentialBFS(t *testing.T) {
	g, _ := levelCountGraph()
	sources := levelCountSources(g)
	dirs := []struct {
		name string
		set  func(*msbfs.Options)
	}{
		{"auto", func(*msbfs.Options) {}},
		{"topdown", func(o *msbfs.Options) { o.TopDownOnly = true }},
		{"bottomup", func(o *msbfs.Options) { o.BottomUpOnly = true }},
	}
	for _, words := range []int{1, 2, 5, 8} {
		for _, workers := range []int{1, 2, 3} {
			for _, d := range dirs {
				for _, maxDepth := range []int{0, 2} {
					opt := msbfs.Options{Workers: workers, BatchWords: words, MaxDepth: maxDepth}
					d.set(&opt)
					name := fmt.Sprintf("words=%d/workers=%d/%s/maxdepth=%d", words, workers, d.name, maxDepth)
					checkLevelAnalytics(t, name, g, g, sources, opt)
				}
			}
		}
	}
}

// TestLevelCountAnalyticsOverlay runs the count path over a dyngraph
// snapshot's uncompacted overlay and compares it with the sequential BFS
// of the same graph with those edges compacted in.
func TestLevelCountAnalyticsOverlay(t *testing.T) {
	g, edges := levelCountGraph()
	n := g.NumVertices()
	isolated := n - 1
	extra := []msbfs.Edge{{U: 0, V: graph.VertexID(isolated)}}
	for i := 0; i < 300; i++ {
		u := graph.VertexID((i * 7919) % (n - 1))
		v := graph.VertexID((i*104729 + 13) % (n - 1))
		if u != v {
			extra = append(extra, msbfs.Edge{U: u, V: v})
		}
	}
	d := dyngraph.New(g, dyngraph.Config{})
	defer d.Close()
	if _, err := d.ApplyEdges(extra); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	ov := snap.Overlay()
	if ov == nil {
		t.Fatal("snapshot carries no overlay")
	}
	compacted := msbfs.NewGraph(n, append(append([]msbfs.Edge(nil), edges...), extra...))
	sources := levelCountSources(g)
	for _, words := range []int{1, 8} {
		for _, topDown := range []bool{false, true} {
			opt := msbfs.Options{Workers: 2, BatchWords: words, TopDownOnly: topDown, Overlay: ov}
			name := fmt.Sprintf("overlay/words=%d/topdown=%v", words, topDown)
			checkLevelAnalytics(t, name, snap.Graph(), compacted, sources, opt)
		}
	}
}

// TestNeighborhoodRadiusZero pins that a radius of 0 (or less) counts the
// source alone instead of turning into an unlimited traversal.
func TestNeighborhoodRadiusZero(t *testing.T) {
	g := msbfs.NewGraph(4, []msbfs.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	for _, hops := range []int{0, -1} {
		got := g.NeighborhoodSizes([]int{0, 2, 2}, hops, msbfs.Options{Workers: 2})
		for i, c := range got {
			if c != 1 {
				t.Errorf("NeighborhoodSizes(hops=%d)[%d] = %d, want 1 (the source only)", hops, i, c)
			}
		}
	}
	if got := g.NeighborhoodSizes([]int{0}, 1, msbfs.Options{}); got[0] != 2 {
		t.Errorf("NeighborhoodSizes(hops=1) = %d, want 2", got[0])
	}
}
