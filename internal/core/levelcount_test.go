package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// levelKey is one (source index, depth) cell of the OnLevel stream.
type levelKey struct{ src, depth int }

// collectLevels runs MS-PBFS with an OnLevel sink and returns the counts it
// reported. It fails the test on a zero or negative count and on a cell
// reported twice. The sink writes a plain map: OnLevel runs on the
// coordinating goroutine only, so -race would flag a concurrent call.
func collectLevels(t *testing.T, g *graph.Graph, sources []int, opt Options) map[levelKey]int64 {
	t.Helper()
	got := map[levelKey]int64{}
	opt.OnLevel = func(src, depth int, count int64) {
		k := levelKey{src, depth}
		if count <= 0 {
			t.Errorf("OnLevel(%d, %d) reported count %d, want > 0", src, depth, count)
		}
		if _, dup := got[k]; dup {
			t.Errorf("OnLevel(%d, %d) reported twice", src, depth)
		}
		got[k] = count
	}
	MSPBFS(g, sources, opt)
	return got
}

// referenceLevelCounts histograms each source's reference BFS levels,
// up to maxDepth hops when it is positive.
func referenceLevelCounts(g *graph.Graph, sources []int, maxDepth int) map[levelKey]int64 {
	want := map[levelKey]int64{}
	for i, s := range sources {
		for _, l := range ReferenceLevels(g, s) {
			if l != NoLevel && (maxDepth <= 0 || int(l) <= maxDepth) {
				want[levelKey{i, int(l)}]++
			}
		}
	}
	return want
}

func levelCountsEqual(t *testing.T, name string, got, want map[levelKey]int64) {
	t.Helper()
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("%s: source #%d depth %d: OnLevel count %d, reference %d", name, k.src, k.depth, got[k], w)
		}
	}
	for k, c := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: source #%d depth %d: OnLevel count %d, reference has none", name, k.src, k.depth, c)
		}
	}
}

func TestLevelCountsMatchReference(t *testing.T) {
	for name, g := range testGraphs() {
		sources := RandomSources(g, 70, 9)
		if len(sources) == 0 {
			sources = []int{0}
		}
		sources = append(sources, sources[0], sources[0])
		for _, words := range []int{1, 3} {
			for _, dir := range []Direction{Auto, TopDownOnly, BottomUpOnly} {
				for _, maxDepth := range []int{0, 3} {
					opt := Options{Workers: 2, BatchWords: words, Direction: dir, MaxDepth: maxDepth}
					label := fmt.Sprintf("%s/words=%d/dir=%d/maxdepth=%d", name, words, dir, maxDepth)
					levelCountsEqual(t, label, collectLevels(t, g, sources, opt), referenceLevelCounts(g, sources, maxDepth))
				}
			}
		}
	}
}

// TestLevelCountsFlushThreshold has one worker discover more vertices in a
// single level than a bit-sliced counter holds (2^16-1 adds), so the
// in-worker flush runs mid-iteration on every kernel path.
func TestLevelCountsFlushThreshold(t *testing.T) {
	const leaves = 70000
	if leaves <= levelFlushAt {
		t.Fatal("star too small to cross the counter flush threshold")
	}
	g := starGraph(leaves + 1)
	sources := []int{0, 1, 2, 0, leaves}
	for _, words := range []int{1, 2} {
		for _, dir := range []Direction{Auto, TopDownOnly, BottomUpOnly} {
			opt := Options{Workers: 1, BatchWords: words, Direction: dir}
			label := fmt.Sprintf("star/words=%d/dir=%d", words, dir)
			got := collectLevels(t, g, sources, opt)
			levelCountsEqual(t, label, got, referenceLevelCounts(g, sources, 0))
			if got[levelKey{0, 1}] != leaves {
				t.Fatalf("%s: center source counted %d leaves at depth 1, want %d", label, got[levelKey{0, 1}], leaves)
			}
		}
	}
}
