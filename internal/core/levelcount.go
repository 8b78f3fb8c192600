package core

import "repro/internal/graph"

// Per-level discovery counts (Options.OnLevel).
//
// Closeness, neighborhood sizes and eccentricities only need, per source
// and depth, how many vertices were newly discovered. Streaming every
// (source, vertex) discovery through OnVisit undoes the bit parallelism
// of MS-PBFS at the very end: one indirect call per set bit. Instead each
// worker folds the newly set bits of a vertex row into its own bit-sliced
// counter — one carry-propagating add per discovered vertex, whatever the
// number of new bits — and the coordinating goroutine reduces the workers'
// counters at the iteration barrier and reports each nonzero count once.

// levelPlanes is the height of the bit-sliced counters: plane j holds bit
// j of each per-source count, so a counter absorbs up to 2^levelPlanes-1
// adds before it must be flushed.
const levelPlanes = 16

// levelFlushAt is the add count at which a worker flushes its planes into
// its plain counts, before any 16-bit per-source count could overflow.
const levelFlushAt = 1<<levelPlanes - 1

// levelCounter is one worker's tally of the states it newly discovered in
// the current iteration, per batch source. planes is the bit-sliced form,
// plane-major: with w batch words, words j*w..(j+1)*w-1 hold bit j of the
// per-source counts. carry is add's scratch row (w words), counts holds
// the flushed totals (64 per batch word), and adds counts the rows folded
// into the planes since the last flush.
//
//bfs:perworker
type levelCounter struct {
	planes []uint64
	carry  []uint64
	counts []int64
	adds   int
	_      [48]byte
}

func newLevelCounters(workers, words int) []levelCounter {
	cs := make([]levelCounter, workers)
	for w := range cs {
		cs[w] = levelCounter{
			planes: make([]uint64, levelPlanes*words),
			carry:  make([]uint64, words),
			counts: make([]int64, 64*words),
		}
	}
	return cs
}

// add folds one row of newly set bits into the counter. The carry ripples
// through all of the row's words plane by plane, so the loop runs as many
// planes as the longest carry chain needs, with one exit test per plane
// rather than one per word.
//
//bfs:singlewriter the counter belongs to the calling worker
func (c *levelCounter) add(row []uint64) {
	carry := c.carry
	w := len(carry)
	plane := c.planes[:w]
	if w < len(row) {
		// BCE hint: the counter shares the batch stride with the state rows.
		panic("mspbfs: level counter narrower than row")
	}
	var more uint64
	for i, x := range row {
		p := plane[i]
		plane[i] = p ^ x
		carry[i] = p & x
		more |= carry[i]
	}
	for j := 1; j < levelPlanes && more != 0; j++ {
		plane = c.planes[j*w : (j+1)*w]
		if len(plane) < len(row) {
			panic("mspbfs: level counter narrower than row")
		}
		more = 0
		for i := range row {
			p, x := plane[i], carry[i]
			plane[i] = p ^ x
			carry[i] = p & x
			more |= carry[i]
		}
	}
	c.adds++
	if c.adds == levelFlushAt {
		c.flush()
	}
}

// flush moves the planes' counts into counts and clears the planes.
//
//bfs:singlewriter the counter belongs to the calling worker (or to the coordinating goroutine at the barrier)
func (c *levelCounter) flush() {
	w := len(c.carry)
	for k, x := range c.planes {
		if x == 0 {
			continue
		}
		j, i := k/w, k%w
		counts := (*[64]int64)(c.counts[i*64 : i*64+64])
		for ; x != 0; x &= x - 1 {
			counts[trailingZeros64(x)&63] += 1 << j
		}
		c.planes[k] = 0
	}
	c.adds = 0
}

// reset zeroes the counter.
//
//bfs:singlewriter shells are scrubbed on the coordinating goroutine at checkout
func (c *levelCounter) reset() {
	clear(c.planes)
	clear(c.carry)
	clear(c.counts)
	c.adds = 0
}

// population returns the number of set bits left in the counter, for the
// bfsdebug scrub-on-checkout assertion.
func (c *levelCounter) population() int {
	n := onesCount(uint64(c.adds))
	for _, w := range c.planes {
		n += onesCount(w)
	}
	for _, v := range c.counts {
		n += onesCount(uint64(v))
	}
	return n
}

// reduceLevels runs at the iteration barrier on the coordinating
// goroutine: it folds every worker's counter into worker 0's counts,
// reports each source with new discoveries at depth to Options.OnLevel,
// and leaves all counters zero. It returns the total it reported.
func (e *MSPBFSEngine) reduceLevels(depth int32, batchOffset int) int64 {
	cs := e.levelCounts
	for w := range cs {
		cs[w].flush()
	}
	total := cs[0].counts
	for w := 1; w < len(cs); w++ {
		counts := cs[w].counts
		if len(counts) < len(total) {
			// BCE hint: every worker's counts share the batch width.
			panic("mspbfs: level counts width mismatch")
		}
		for i := range total {
			total[i] += counts[i]
			counts[i] = 0
		}
	}
	var sum int64
	for i, c := range total {
		if c == 0 {
			continue
		}
		sum += c
		total[i] = 0
		e.opt.OnLevel(batchOffset+i, int(depth), c)
	}
	return sum
}

// LevelTotals are the per-source aggregates of a traversal's per-level
// discovery counts — everything closeness, neighborhood sizes and
// eccentricities need, in O(sources) memory.
type LevelTotals struct {
	// DistSum[i] is the sum of the distances from source i to every
	// vertex it reached.
	DistSum []int64
	// Reached[i] counts the vertices source i reached, itself included.
	Reached []int64
	// Ecc[i] is the deepest depth at which source i discovered a vertex.
	Ecc []int32
}

// MSPBFSLevelTotals runs MS-PBFS from sources and aggregates its
// per-level discovery counts per source. opt.OnLevel and opt.RecordLevels
// are overridden; MaxDepth, when set, bounds the totals as it bounds the
// traversal.
func MSPBFSLevelTotals(g *graph.Graph, sources []int, opt Options) LevelTotals {
	t := LevelTotals{
		DistSum: make([]int64, len(sources)),
		Reached: make([]int64, len(sources)),
		Ecc:     make([]int32, len(sources)),
	}
	opt.RecordLevels = false
	opt.OnLevel = func(sourceIdx, depth int, count int64) {
		t.DistSum[sourceIdx] += int64(depth) * count
		t.Reached[sourceIdx] += count
		if int32(depth) > t.Ecc[sourceIdx] {
			t.Ecc[sourceIdx] = int32(depth)
		}
	}
	MSPBFS(g, sources, opt)
	return t
}

// Closeness returns the closeness centrality of every source of a graph
// with n vertices (see ClosenessFromSums).
func (t LevelTotals) Closeness(n int) []float64 {
	out := make([]float64, len(t.Reached))
	for i := range out {
		out[i] = ClosenessFromSums(n, t.DistSum[i], t.Reached[i])
	}
	return out
}

// ClosenessFromSums is the closeness centrality of a vertex that reached
// reached vertices (itself included) at total distance sum in a graph of
// n vertices: (reached-1)/sum, normalized by the fraction of the graph
// reached — the Wasserman-Faust formula for disconnected graphs. A vertex
// that reaches nothing gets 0.
func ClosenessFromSums(n int, sum, reached int64) float64 {
	if reached <= 1 || sum == 0 || n <= 1 {
		return 0
	}
	r := float64(reached - 1)
	return r / float64(sum) * r / float64(n-1)
}
