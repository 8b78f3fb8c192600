package core

import (
	"time"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/numa"
	"repro/internal/sched"
)

// MSPBFS runs the parallel multi-source BFS of Section 3. Sources are
// processed in batches of up to 64*BatchWords concurrent BFSs; all workers
// cooperate on each batch (one multi-source BFS saturates the machine, the
// property Figure 2 demonstrates). The same code path runs sequentially
// when Workers is 1 — the paper's point that the parallelization overhead
// is negligible means no separate sequential implementation is needed.
func MSPBFS(g *graph.Graph, sources []int, opt Options) *MultiResult {
	e := newMSPBFSEngine(g, opt)
	defer e.Close()
	return e.Run(sources)
}

// MSPBFSEngine holds the reusable state of an MS-PBFS instance: the three
// per-vertex bitset arrays, the worker-owned frontier shadows, the worker
// pool and stripe-affine task layouts, and the modeled NUMA placement.
// Reusing an engine across batches amortizes allocation, matching the
// paper's "initialize large data structures once" design (Section 4.4).
//
// The parallel substrate is worker-owned: the vertex space is striped
// across workers at word-aligned borders (vBounds), each worker's task
// queue holds its own stripe's tasks (stealing crosses stripes for load
// balance), and the top-down scatter writes worker-private shadow slabs
// with plain stores instead of CAS-merging into a shared next array. A
// static merge phase at the barrier ORs the shadows into the canonical
// next, stripe by stripe, each stripe folded by its owner. See DESIGN.md
// §"Worker-owned frontier substrate".
type MSPBFSEngine struct {
	g   *graph.Graph
	opt Options

	pool *sched.Pool
	// tq is the stripe-affine task layout for the scatter/resolve/zero
	// phases and (statically fetched) the shadow merge; buTQ is the
	// cache-blocked layout for bottom-up sweeps — same stripes, task size
	// chosen so one task's state rows fit the LLC.
	tq   *sched.TaskQueues
	buTQ *sched.TaskQueues
	// vBounds are the word-aligned stripe borders (len workers+1).
	vBounds []int

	// Arena bookkeeping: the engine the instance borrows from, whether the
	// pool must be handed back on Close, and whether the whole shell
	// (states + counters + scratch) checks back into the arena keyed by
	// its run shape. NUMA-modeled instances are never recycled — their
	// page map and steal order are bound to one topology.
	eng          *Engine
	poolBorrowed bool
	recycle      bool
	key          msKey
	released     bool

	seen  *bitset.State
	buf0  *bitset.State // frontier/next double buffer
	buf1  *bitset.State
	words int
	// shadows is the worker-owned scatter substrate for the top-down
	// phase; nil when Options.DisableSegments selects the shared-CAS path.
	shadows *bitset.Shadows
	// clean records that the state arrays are known all-zero (fresh
	// construction or checkout scrub), letting the first batch skip its
	// zeroing pass — on single-batch runs that pass was pure overhead.
	clean bool
	// mask is the reusable active-mask buffer (the per-batch replacement
	// for State.FullMask, which allocates).
	mask []uint64

	// Per-worker accumulators (cache-line padded).
	scanned   []padCounter // neighbor entries examined
	updated   []padCounter // newly set BFS states
	frontVtx  []padCounter // vertices active in the produced frontier
	frontDeg  []padCounter // degree sum of the produced frontier
	unseenDeg []padCounter // degree newly removed from the unexplored set
	// prefSink keeps the bottom-up lookahead loads observable so the
	// compiler cannot dead-code them (software prefetch by hoisted load).
	prefSink []padCounter
	// levelCounts are the per-worker per-source discovery tallies behind
	// Options.OnLevel (see levelcount.go), O(workers x batch width).
	levelCounts []levelCounter

	// Per-worker bottom-up scratch rows.
	scratch [][]uint64
	// Per-worker OR of the frontier bits produced this iteration; their
	// union is the next iteration's active mask. A BFS whose frontier
	// drained can never discover anything again, so removing its bit lets
	// the bottom-up skip and early-exit checks fire even when some of the
	// batch's sources sit in small components (without this, one finished
	// BFS would force full neighbor scans for the rest of the run).
	liveBits [][]uint64

	// Phase bodies, bound once per shell so per-iteration phase dispatch
	// allocates nothing; they read the ph* fields below, which the
	// coordinating goroutine rebinds between barriers.
	scatterBody    func(int, sched.Range)
	casScatterBody func(int, sched.Range)
	mergeBody      func(int, sched.Range)
	resolveBody    func(int, sched.Range)
	bottomUpBody   func(int, sched.Range)
	zeroBody       func(int, sched.Range)

	// Per-iteration phase state (written between barriers only).
	phFrontier    *bitset.State
	phNext        *bitset.State
	phMask        []uint64
	phLevels      [][]int32
	phDepth       int32
	phBatchOffset int

	// Modeled NUMA placement (nil unless Options.Topology is set).
	pageMap *numa.PageMap
	tracker *numa.Tracker
	// mergeFolded[owner] is per-shadow folded-word scratch for the modeled
	// merge accounting (nil on untracked runs).
	mergeFolded [][]int64
}

// NewMSPBFSEngine prepares an instance. Close must be called to hand the
// worker pool and the state arrays back to the engine's arena (pools
// supplied via Options.Pool stay with the caller).
func NewMSPBFSEngine(g *graph.Graph, opt Options) *MSPBFSEngine {
	return newMSPBFSEngine(g, opt)
}

// cacheBlockedSplit returns the bottom-up task size in vertices: the
// largest multiple of splitStride whose per-task working set — the
// stripe's seen and next rows plus amortized frontier and adjacency
// traffic — fits in half the last-level cache, floored at one stride.
// Blocking the destination range keeps the stripe's state rows resident
// across the whole neighbor scan (the "CSR stripe sized to LLC" design).
func cacheBlockedSplit(words int) int {
	perVertex := int64(3*8*words + 64) // seen+next+scratch rows + amortized adjacency/frontier line
	v := numa.LLCBytes() / 2 / perVertex
	v -= v % splitStride
	if v < splitStride {
		v = splitStride
	}
	const maxSplit = 1 << 20
	if v > maxSplit {
		v = maxSplit
	}
	return int(v)
}

func newMSPBFSEngine(g *graph.Graph, opt Options) *MSPBFSEngine {
	n := g.NumVertices()
	words := opt.batchWords()
	eng := opt.engine()
	pool, borrowed := opt.resolvePool(eng)
	workers := pool.Workers()
	key := msKey{n: n, words: words, split: opt.splitSize(), workers: workers, seg: !opt.DisableSegments}
	recycle := opt.Topology.Sockets == 0

	var e *MSPBFSEngine
	if recycle {
		e = eng.checkoutMS(key) //bfs:arena-held warm shell is handed to the caller; Close checks it back in via checkinMS
	}
	if e != nil {
		// Warm shell: every array already has the right shape; just
		// re-bind the run-specific references.
		e.g, e.opt, e.pool = g, opt, pool
	} else {
		alloc := eng.slabAlloc(opt)
		vBounds := numa.AlignedRanges(n, workers, splitStride)
		e = &MSPBFSEngine{
			g:         g,
			opt:       opt,
			pool:      pool,
			tq:        sched.CreateStripeTasks(vBounds, opt.splitSize()),
			buTQ:      sched.CreateStripeTasks(vBounds, cacheBlockedSplit(words)),
			vBounds:   vBounds,
			seen:      newPlacedState(n, words, alloc),
			buf0:      newPlacedState(n, words, alloc),
			buf1:      newPlacedState(n, words, alloc),
			words:     words,
			mask:      make([]uint64, words),
			scanned:   make([]padCounter, workers),
			updated:   make([]padCounter, workers),
			frontVtx:  make([]padCounter, workers),
			frontDeg:  make([]padCounter, workers),
			unseenDeg: make([]padCounter, workers),
			prefSink:  make([]padCounter, workers),
			scratch:   make([][]uint64, workers),
			liveBits:  make([][]uint64, workers),
		}
		e.levelCounts = newLevelCounters(workers, words)
		if !opt.DisableSegments {
			e.shadows = bitset.NewShadows(n*words, workers, alloc)
		}
		if opt.RealPlacement {
			// Advise the kernel that each stripe belongs on its owner's
			// node; the first-touch zeroing below does the actual faulting.
			wBounds := make([]int, len(vBounds))
			for i, b := range vBounds {
				wBounds[i] = b * words
			}
			placer := eng.placer()
			placer.Interleave(e.seen.Words(), wBounds)
			placer.Interleave(e.buf0.Words(), wBounds)
			placer.Interleave(e.buf1.Words(), wBounds)
		}
		for w := range e.scratch {
			e.scratch[w] = make([]uint64, words)
			// Pad each row to a cache line so per-worker OR accumulation does
			// not false-share.
			e.liveBits[w] = make([]uint64, words, words+8)
		}
		e.bindPhaseBodies()
	}
	e.eng, e.poolBorrowed, e.recycle, e.key, e.released = eng, borrowed, recycle, key, false

	if opt.Topology.Sockets > 0 {
		// Model the paper's deterministic page placement: the BFS arrays
		// are interleaved across regions at exactly the task-range borders
		// (Section 4.4), as the per-worker first-touch initialization
		// below would produce on real hardware.
		e.pageMap = numa.NewPageMap(opt.Topology, n, words*8)
		e.pageMap.PlaceFirstTouch(e.tq)
		e.tracker = numa.NewTracker(opt.Topology)
		if e.shadows != nil {
			// Per-owner scratch for per-shadow merge attribution: modeled
			// runs charge only folded words (no-change merge reads are
			// shareable and uncharged, matching the CAS path's convention).
			e.mergeFolded = make([][]int64, workers)
			for w := range e.mergeFolded {
				e.mergeFolded[w] = make([]int64, workers-1)
			}
		}
		if opt.Topology.Workers() == workers {
			// NUMA-aware stealing: drain same-region queues before
			// crossing sockets, so stolen tasks' data stays as local as
			// the topology allows.
			e.tq.SetStealOrder(numa.StealOrder(opt.Topology))
			e.buTQ.SetStealOrder(numa.StealOrder(opt.Topology))
		}
	}

	// Parallel first-touch initialization without stealing so the modeled
	// (and, under RealPlacement, the real) placement matches which worker
	// owns each stripe. For a recycled shell this pass doubles as the
	// arena scrub: no bits survive from the previous run, however it
	// ended. It also marks the shell clean, so the first batch skips its
	// zeroing pass instead of re-scrubbing fresh arrays.
	e.tq.Reset()
	pool.ParallelForStatic(e.tq, e.zeroBody)
	e.clean = true
	for w := range e.levelCounts {
		e.levelCounts[w].reset()
	}
	if debugInvariants {
		debugCheckBorrowedClean("MS-PBFS shell",
			e.seen.CountAll()+e.buf0.CountAll()+e.buf1.CountAll())
		dirty := 0
		for w := range e.levelCounts {
			dirty += e.levelCounts[w].population()
		}
		debugCheckBorrowedClean("MS-PBFS level counters", dirty)
		if e.shadows != nil && !e.shadows.AllClear() {
			panic("bfsdebug: MS-PBFS shadows dirty at checkout")
		}
	}
	return e
}

// newPlacedState allocates a State, through the placement allocator when
// one is wired (RealPlacement) and plainly otherwise.
func newPlacedState(n, words int, alloc bitset.ShadowAlloc) *bitset.State {
	if alloc == nil {
		return bitset.NewState(n, words)
	}
	return bitset.NewStateFrom(n, words, alloc(n*words))
}

// Close hands the instance back to its engine: the worker pool returns to
// the pool cache (unless supplied by the caller) and the shell — states,
// counters, scratch — checks into the arena for the next same-shape run.
// Close is idempotent; the instance must not be used afterwards.
func (e *MSPBFSEngine) Close() {
	if e.released {
		return
	}
	e.released = true
	eng, pool := e.eng, e.pool
	if e.poolBorrowed {
		eng.returnPool(pool)
	}
	if e.recycle {
		eng.checkinMS(e)
	}
}

// Run processes all sources in batches and aggregates the result.
func (e *MSPBFSEngine) Run(sources []int) *MultiResult {
	res := &MultiResult{Sources: append([]int(nil), sources...)}
	if e.opt.RecordLevels {
		res.Levels = make([][]int32, len(sources))
	}
	res.NUMAStats = e.tracker
	e.pool.ResetBusy()
	perBatch := SourcesPerBatch(e.words)
	for off := 0; off < len(sources); off += perBatch {
		hi := off + perBatch
		if hi > len(sources) {
			hi = len(sources)
		}
		e.runBatch(sources[off:hi], off, res)
	}
	res.WorkerBusy = e.pool.Busy()
	return res
}

// runBatch executes one batch of k <= 64*words concurrent BFSs.
func (e *MSPBFSEngine) runBatch(batch []int, batchOffset int, res *MultiResult) {
	g, opt, n := e.g, e.opt, e.g.NumVertices()
	ov := opt.Overlay
	k := len(batch)
	if k == 0 {
		return
	}
	rec := newIterRecorder(opt, "ms-pbfs", k, e.pool)
	var levels [][]int32
	if opt.RecordLevels {
		levels = make([][]int32, k) //bfs:alloc-ok k pointers per batch, not per vertex
		for i := range levels {
			// The NoLevel fill is the level rows' arena scrub: every entry
			// is overwritten before the row can be read.
			levels[i] = e.eng.borrowLevels(n) //bfs:arena-held rows ride in the returned MultiResult; the caller frees them with Engine.ReleaseLevels
			for v := range levels[i] {
				levels[i][v] = NoLevel
			}
		}
	}

	start := time.Now()

	// Reset state from any previous batch (skipped when the constructor's
	// first-touch scrub just ran). The static no-steal loop keeps the
	// placement authoritative.
	if !e.clean {
		e.tq.Reset()
		e.pool.ParallelForStatic(e.tq, e.zeroBody)
	}
	e.clean = false

	frontier, next := e.buf0, e.buf1
	activeMask := fillMask(e.mask, k)

	// Seed the batch, simultaneously accumulating the heuristic state
	// (aggregate over the batch, GAPBS-style): a source not yet seen by any
	// earlier index is a distinct frontier vertex.
	var visited int64
	frontVertices := int64(0)
	frontEdges := int64(0)
	for i, s := range batch {
		if !e.seen.Any(s) {
			frontVertices++
			frontEdges += int64(g.Degree(s))
			if ov != nil {
				frontEdges += int64(ov.ExtraDegree(s))
			}
		}
		e.seen.Set(s, i)
		frontier.Set(s, i)
		visited++
		if levels != nil {
			levels[i][s] = 0
		}
		if opt.OnVisit != nil {
			opt.OnVisit(0, batchOffset+i, s, 0)
		}
		if opt.OnLevel != nil {
			opt.OnLevel(batchOffset+i, 0, 1)
		}
	}

	// Invariant-layer state (bfsdebug builds only; dead code otherwise).
	var dbgSeen int64
	if debugInvariants {
		dbgSeen = int64(e.seen.CountAll())
	}

	// Overlay arcs count toward the unexplored-edge pool exactly as if they
	// were already compacted into the CSR, so auto-direction decisions are
	// identical between the overlay and compacted representations. The
	// dirInputs carrier is the single place these sums happen — see the
	// double-counting note on its definition.
	var dir dirInputs
	dir.seed(int64(len(g.Adjacency)), ov.Arcs(), frontVertices, frontEdges)

	bottomUp := opt.Direction == BottomUpOnly
	depth := int32(0)
	var dirReason string

	for dir.frontVertices > 0 {
		if opt.MaxDepth > 0 && int(depth) >= opt.MaxDepth {
			break
		}
		depth++
		iterStart := time.Now()

		bottomUp, dirReason = dir.decide(opt, bottomUp, n)

		resetCounters(e.scanned)
		resetCounters(e.updated)
		resetCounters(e.frontVtx)
		resetCounters(e.frontDeg)
		resetCounters(e.unseenDeg)
		for w := range e.liveBits {
			for i := range e.liveBits[w] {
				e.liveBits[w][i] = 0 //bfs:singlewriter reset between phases on the coordinating goroutine
			}
		}

		var busy []time.Duration
		if bottomUp {
			busy = e.bottomUpIteration(frontier, next, activeMask, levels, depth, batchOffset)
		} else {
			busy = e.topDownIteration(frontier, next, levels, depth, batchOffset)
		}

		// Shrink the active mask to the BFSs that still have a frontier;
		// drained BFSs can never discover new vertices.
		for i := range activeMask {
			activeMask[i] = 0 //bfs:singlewriter mask rebuild between phases on the coordinating goroutine
		}
		for w := range e.liveBits {
			for i := range activeMask {
				activeMask[i] |= e.liveBits[w][i] //bfs:singlewriter mask rebuild between phases on the coordinating goroutine
			}
		}

		updated := sumCounters(e.updated)
		if opt.OnLevel != nil {
			counted := e.reduceLevels(depth, batchOffset)
			if debugInvariants {
				debugCheckLevelCounts(counted, updated, "MS-PBFS", depth)
			}
		}
		if debugInvariants {
			dbgSeen = debugCheckBatchIteration(e.seen, next, dbgSeen, updated, "MS-PBFS", depth)
		}
		visited += updated
		dir.applyIteration(e.frontVtx, e.frontDeg, e.unseenDeg)

		rec.noteMerge(e.shadows)
		rec.noteHeuristic(dir.frontEdges, dir.unexploredEdges)
		rec.record(int(depth), time.Since(iterStart), busy,
			dir.frontVertices, updated, sumCounters(e.scanned), visited, bottomUp, dirReason,
			e.scanned, e.updated)

		frontier, next = next, frontier
	}

	// After a bottom-up final iteration the buffers may hold bits from
	// older iterations; the next batch resets everything, so nothing to do.
	e.buf0, e.buf1 = frontier, next

	if debugInvariants && levels != nil && opt.MaxDepth <= 0 {
		for i := range levels {
			debugCheckLevels(g, ov, batch[i], levels[i], "MS-PBFS")
		}
	}

	rec.finish()
	elapsed := time.Since(start)
	res.VisitedStates += visited
	res.Stats.Merge(metrics.RunStat{Elapsed: elapsed, Sources: k, Iterations: rec.stats})
	if levels != nil {
		for i := range levels {
			res.Levels[batchOffset+i] = levels[i]
		}
	}
}

// bindPhaseBodies builds the per-phase loop bodies once per shell. The
// bodies read the ph* iteration state, so the per-iteration cost of a
// phase is one queue reset and one barrier — no closure allocation.
func (e *MSPBFSEngine) bindPhaseBodies() {
	e.scatterBody = e.scatterTask
	e.casScatterBody = e.casScatterTask
	e.mergeBody = e.mergeTask
	e.resolveBody = e.resolveTask
	e.bottomUpBody = e.bottomUpTask
	e.zeroBody = func(_ int, r sched.Range) {
		e.seen.ZeroRange(r.Lo, r.Hi)
		e.buf0.ZeroRange(r.Lo, r.Hi)
		e.buf1.ZeroRange(r.Lo, r.Hi)
	}
}

// topDownIteration runs the parallel top-down step on the worker-owned
// substrate: scatter into private shadows (plain stores), OR-merge at the
// barrier (stripe owners, static fetch), then the usual single-writer
// resolve sweep. With DisableSegments it falls back to the two-phase
// shared-CAS structure of Section 3.1.1.
//
//bfs:singlewriter scatter writes go to worker-private shadows (or the canonical slab for worker 0); merge gives every word exactly one writer per stripe; resolve touches each vertex row from exactly one worker
func (e *MSPBFSEngine) topDownIteration(frontier, next *bitset.State, levels [][]int32, depth int32, batchOffset int) []time.Duration {
	steal := !e.opt.DisableStealing
	e.phFrontier, e.phNext, e.phLevels, e.phDepth, e.phBatchOffset = frontier, next, levels, depth, batchOffset

	// Phase 1: scatter frontier rows toward neighbors.
	var busy1, busyM []time.Duration
	if e.shadows == nil {
		e.tq.Reset()
		busy1 = e.runPhase(e.tq, steal, e.casScatterBody)
	} else {
		e.tq.Reset()
		busy1 = e.runPhase(e.tq, steal, e.scatterBody)
		// Publish at the barrier: stripe owners fold every shadow into the
		// canonical next. Static fetch confines each worker to its own
		// stripe — the single-writer guarantee of the merge.
		if e.shadows.Workers() > 1 {
			e.tq.Reset()
			busyM = e.runPhase(e.tq, false, e.mergeBody)
		}
	}

	// Phase 2: identify newly discovered vertices (Listing 1 lines 6-11).
	e.tq.Reset()
	busy2 := e.runPhase(e.tq, steal, e.resolveBody)

	return sumBusy(sumBusy(busy1, busyM), busy2)
}

// scatterTask is the segmented top-down scatter: the worker merges each
// frontier vertex's row into its private shadow (worker 0: the canonical
// next) with plain stores. No atomics anywhere on this path — the vet
// gate below proves it stays that way.
//
//bfs:nocas
//bfs:singlewriter the target slab has exactly one writer for the phase's lifetime
func (e *MSPBFSEngine) scatterTask(workerID int, r sched.Range) {
	g, ov := e.g, e.opt.Overlay
	frontier := e.phFrontier
	scanned := &e.scanned[workerID]
	tgt := e.shadows.Writer(workerID, e.phNext.Words())
	if e.words == 1 {
		// Fast path for the common 64-BFS configuration: single-word rows
		// indexed straight off the slabs, no per-vertex row slicing.
		fw := frontier.Words()
		//bfs:hot phase 1 frontier scan: runs per vertex per iteration, must not allocate
		for v := r.Lo; v < r.Hi; v++ {
			w := fw[v] //bfs:bounds-ok v < n by task construction; slab is n words at stride 1
			if w == 0 {
				continue
			}
			nbrs := g.Neighbors(v) //bfs:bounds-ok CSR offsets are monotone and sized n+1 by Builder
			scanned.v += int64(len(nbrs))
			for _, nb := range nbrs {
				tgt[nb] |= w //bfs:bounds-ok neighbor ids < n by CSR construction; slab is n words
			}
			if ov != nil {
				// Fused overlay scan: the not-yet-compacted extra neighbors
				// merge into the same private slab.
				for _, nb := range ov.Extra(v) { //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
					scanned.v++
					tgt[nb] |= w //bfs:bounds-ok overlay endpoints < n by ingest validation
				}
			}
			if e.tracker != nil {
				// Shadow writes are region-local by construction — the
				// whole point of the worker-owned substrate.
				e.tracker.RecordLocalN(workerID, int64(len(nbrs))) //bfs:bounds-ok inlined t.local[worker]; workerID < Workers by pool construction, tracker sized to the worker count
			}
		}
		return
	}
	stride := e.words
	//bfs:hot phase 1 frontier scan (wide rows): runs per vertex per iteration, must not allocate
	for v := r.Lo; v < r.Hi; v++ {
		if !frontier.Any(v) { //bfs:bounds-ok inlined row indexing; stride invariant held by State
			continue
		}
		row := frontier.Row(v) //bfs:bounds-ok row slice from the vertex index; State sizes words to n*stride
		nbrs := g.Neighbors(v) //bfs:bounds-ok CSR offsets are monotone and sized n+1 by Builder
		scanned.v += int64(len(nbrs))
		for _, nb := range nbrs {
			off := int(nb) * stride
			for i := 0; i < stride; i++ {
				tgt[off+i] |= row[i] //bfs:bounds-ok off+stride <= n*stride for nb < n; row sized stride
			}
		}
		if ov != nil {
			for _, nb := range ov.Extra(v) { //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
				scanned.v++
				off := int(nb) * stride
				for i := 0; i < stride; i++ {
					tgt[off+i] |= row[i] //bfs:bounds-ok off+stride <= n*stride for nb < n; row sized stride
				}
			}
		}
		if e.tracker != nil {
			e.tracker.RecordLocalN(workerID, int64(len(nbrs))) //bfs:bounds-ok inlined t.local[worker]; workerID < Workers by pool construction, tracker sized to the worker count
		}
	}
}

// casScatterTask is the pre-segmentation scatter kept for A/B equivalence
// and ablation (Options.DisableSegments): aggregate reachability into the
// shared next via per-word CAS (Listing 1 lines 1-4 with the CAS
// replacement of Section 3.1.1).
func (e *MSPBFSEngine) casScatterTask(workerID int, r sched.Range) {
	g, ov := e.g, e.opt.Overlay
	frontier, next := e.phFrontier, e.phNext
	scanned := &e.scanned[workerID]
	//bfs:hot phase 1 frontier scan: runs per vertex per iteration, must not allocate
	for v := r.Lo; v < r.Hi; v++ {
		if !frontier.Any(v) { //bfs:bounds-ok inlined row indexing; stride invariant held by State
			continue
		}
		row := frontier.Row(v) //bfs:bounds-ok row slice from the vertex index; State sizes words to n*stride
		nbrs := g.Neighbors(v) //bfs:bounds-ok CSR offsets are monotone and sized n+1 by Builder
		scanned.v += int64(len(nbrs))
		if e.tracker == nil {
			for _, nb := range nbrs {
				next.AtomicOrVertex(int(nb), row)
			}
		} else {
			// Model phase 1's scattered writes: only merges that change
			// the bitset dirty a cache line; no-change merges are pure
			// (shareable) reads and are not charged.
			for _, nb := range nbrs {
				if next.AtomicOrVertex(int(nb), row) {
					e.tracker.RecordElem(e.pageMap, workerID, int(nb)) //bfs:bounds-ok inlined page-map indexing on the off-by-default tracking path
				}
			}
		}
		if ov != nil {
			for _, nb := range ov.Extra(v) { //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
				scanned.v++
				if next.AtomicOrVertex(int(nb), row) && e.tracker != nil {
					e.tracker.RecordElem(e.pageMap, workerID, int(nb)) //bfs:bounds-ok inlined page-map indexing on the off-by-default tracking path
				}
			}
		}
	}
}

// mergeTask publishes one stripe sub-range: the owner (static fetch makes
// workerID the stripe owner) folds every worker's shadow words into the
// canonical next and zeroes them. Plain stores only.
//
//bfs:nocas
//bfs:singlewriter stripe owner is the only writer of its canonical and shadow words between barriers
func (e *MSPBFSEngine) mergeTask(workerID int, r sched.Range) {
	stride := e.words
	canon := e.phNext.Words()
	if e.tracker == nil {
		e.shadows.MergeRange(workerID, canon, r.Lo*stride, r.Hi*stride)
		return
	}
	counts := e.mergeFolded[workerID]
	for i := range counts {
		counts[i] = 0
	}
	folded := e.shadows.MergeRangeCounts(workerID, canon, r.Lo*stride, r.Hi*stride, counts)
	// Canonical stripe writes are local by first-touch; a shadow read
	// crosses regions when the shadow's writer lives elsewhere. Only
	// folded words are charged — a no-change merge read is shareable and
	// uncharged, the same convention the CAS scatter's tracker branch
	// applies to no-change CAS merges.
	e.tracker.RecordLocalN(workerID, folded)
	for sw := 1; sw < e.shadows.Workers(); sw++ {
		e.tracker.RecordShadowMerge(workerID, sw, counts[sw-1])
	}
}

// resolveTask is phase 2: identify newly discovered vertices. Each vertex
// is touched by exactly one worker, so no synchronization; frontier
// entries are cleared in place so the arrays can swap roles without a
// separate memset.
//
//bfs:nocas
//bfs:singlewriter each vertex row is read and written by the one worker that owns its range; live is worker-local scratch
func (e *MSPBFSEngine) resolveTask(workerID int, r sched.Range) {
	g, opt := e.g, e.opt
	ov := opt.Overlay
	frontier, next := e.phFrontier, e.phNext
	levels := e.phLevels
	upd := &e.updated[workerID]
	fv := &e.frontVtx[workerID]
	fd := &e.frontDeg[workerID]
	ud := &e.unseenDeg[workerID]
	live := e.liveBits[workerID]
	if e.tracker != nil {
		e.tracker.RecordRangeElems(e.pageMap, workerID, r.Lo, r.Hi)
	}
	//bfs:hot phase 2 resolution sweep: runs per vertex per iteration, must not allocate
	for v := r.Lo; v < r.Hi; v++ {
		if frontier.Any(v) { //bfs:bounds-ok inlined row indexing; stride invariant held by State
			frontier.ZeroVertex(v) //bfs:bounds-ok inlined row zeroing; stride invariant held by State
		}
		if !next.Any(v) { //bfs:bounds-ok inlined row indexing; stride invariant held by State
			continue
		}
		nRow := next.Row(v)   //bfs:bounds-ok row slice from the vertex index; State sizes words to n*stride
		sRow := e.seen.Row(v) //bfs:bounds-ok row slice from the vertex index; State sizes words to n*stride
		if len(sRow) < len(nRow) || len(live) < len(nRow) {
			// BCE hint: pins the row strides so the merge loops below
			// compile without per-word bounds checks (bfsgate contract).
			panic("mspbfs: row stride mismatch")
		}
		anyNew := uint64(0)
		for i := range nRow {
			nw := nRow[i] &^ sRow[i]
			if nw != nRow[i] {
				nRow[i] = nw
			}
			sRow[i] |= nw
			anyNew |= nw
		}
		if anyNew == 0 {
			continue
		}
		newBits := 0
		for i := range nRow {
			newBits += onesCount(nRow[i])
			live[i] |= nRow[i]
		}
		upd.v += int64(newBits)
		fv.v++
		d := int64(g.Degree(v)) //bfs:bounds-ok inlined CSR offset pair; offsets sized n+1 by Builder
		if ov != nil {
			d += int64(ov.ExtraDegree(v)) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
		}
		fd.v += d
		ud.v += d
		if levels != nil || opt.OnVisit != nil || opt.OnLevel != nil {
			e.emitVisits(workerID, v, nRow, levels, e.phDepth, e.phBatchOffset)
		}
	}
}

// bottomUpIteration runs the parallel bottom-up step of Section 3.1.2 over
// the cache-blocked stripe layout.
//
//bfs:singlewriter each unseen vertex row is read and written by the one worker that owns its range; acc/live are worker-local scratch
func (e *MSPBFSEngine) bottomUpIteration(frontier, next *bitset.State, activeMask []uint64, levels [][]int32, depth int32, batchOffset int) []time.Duration {
	steal := !e.opt.DisableStealing
	e.phFrontier, e.phNext, e.phMask = frontier, next, activeMask
	e.phLevels, e.phDepth, e.phBatchOffset = levels, depth, batchOffset
	e.buTQ.Reset()
	return e.runPhase(e.buTQ, steal, e.bottomUpBody)
}

// bottomUpLookahead is how many adjacency entries ahead the stride-1
// bottom-up loop touches the frontier word of an upcoming neighbor — a
// software prefetch expressed as a hoisted load (Go has no prefetch
// intrinsic), kept observable through prefSink.
const bottomUpLookahead = 8

// bottomUpTask scans one destination stripe. For single-word rows it runs
// the branchless Listing-2 inner loop: a 4-wide unrolled OR-accumulate
// over the frontier words of the vertex's neighbors — four independent
// loads in flight, no per-edge branch — with the early exit checked once
// per unrolled group, plus a lookahead touch of the frontier word needed
// bottomUpLookahead edges later.
//
//bfs:nocas
//bfs:singlewriter each unseen vertex row is read and written by the one worker that owns its range; acc/live are worker-local scratch
func (e *MSPBFSEngine) bottomUpTask(workerID int, r sched.Range) {
	g, opt := e.g, e.opt
	ov := opt.Overlay
	earlyExit := !opt.DisableEarlyExit
	frontier, next, activeMask := e.phFrontier, e.phNext, e.phMask
	levels := e.phLevels
	scanned := &e.scanned[workerID]
	upd := &e.updated[workerID]
	fv := &e.frontVtx[workerID]
	fd := &e.frontDeg[workerID]
	ud := &e.unseenDeg[workerID]
	live := e.liveBits[workerID]
	if e.tracker != nil {
		e.tracker.RecordRange(e.pageMap, workerID, r.Lo, r.Hi)
	}
	if e.words == 1 {
		e.bottomUpTaskNarrow(workerID, r)
		return
	}
	acc := e.scratch[workerID]
	//bfs:hot bottom-up sweep: runs per vertex per iteration, must not allocate
	for u := r.Lo; u < r.Hi; u++ {
		sRow := e.seen.Row(u) //bfs:bounds-ok row slice from the vertex index; State sizes words to n*stride
		if coversMask(sRow, activeMask) {
			// Fully seen: just scrub any stale next bits so the buffer
			// swap stays exact (see the buffer-reuse discussion in the
			// package tests).
			if next.Any(u) { //bfs:bounds-ok inlined row indexing; stride invariant held by State
				next.ZeroVertex(u) //bfs:bounds-ok inlined row zeroing; stride invariant held by State
			}
			continue
		}
		for i := range acc {
			acc[i] = 0
		}
		for _, v := range g.Neighbors(u) { //bfs:bounds-ok inlined CSR offset pair; offsets sized n+1 by Builder
			scanned.v++
			fRow := frontier.Row(int(v)) //bfs:bounds-ok row slice from the vertex index; State sizes words to n*stride
			if len(fRow) < len(acc) {
				// BCE hint: pins the row stride so the merge below
				// compiles without per-word bounds checks (bfsgate).
				panic("mspbfs: row stride mismatch")
			}
			for i := range acc {
				acc[i] |= fRow[i]
			}
			if earlyExit && coversPair(sRow, acc, activeMask) {
				break
			}
		}
		if ov != nil && !(earlyExit && coversPair(sRow, acc, activeMask)) {
			// Fused overlay scan: extra neighbors accumulate into the
			// same acc row, with the same early exit once every live BFS
			// bit is covered.
			for _, v := range ov.Extra(u) { //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
				scanned.v++
				fRow := frontier.Row(int(v)) //bfs:bounds-ok row slice from the vertex index; State sizes words to n*stride
				if len(fRow) < len(acc) {
					// BCE hint: see the CSR loop above.
					panic("mspbfs: row stride mismatch")
				}
				for i := range acc {
					acc[i] |= fRow[i]
				}
				if earlyExit && coversPair(sRow, acc, activeMask) {
					break
				}
			}
		}
		nRow := next.Row(u) //bfs:bounds-ok row slice from the vertex index; State sizes words to n*stride
		if len(sRow) < len(acc) || len(nRow) < len(acc) || len(live) < len(nRow) {
			// BCE hint: pins the row strides so the resolution loops
			// below compile without per-word bounds checks (bfsgate).
			panic("mspbfs: row stride mismatch")
		}
		anyNew := uint64(0)
		for i := range acc {
			nw := acc[i] &^ sRow[i]
			nRow[i] = nw
			sRow[i] |= nw
			anyNew |= nw
		}
		if anyNew == 0 {
			continue
		}
		newBits := 0
		for i := range nRow {
			newBits += onesCount(nRow[i])
			live[i] |= nRow[i]
		}
		upd.v += int64(newBits)
		fv.v++
		d := int64(g.Degree(u)) //bfs:bounds-ok inlined CSR offset pair; offsets sized n+1 by Builder
		if ov != nil {
			d += int64(ov.ExtraDegree(u)) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
		}
		fd.v += d
		ud.v += d
		if levels != nil || opt.OnVisit != nil || opt.OnLevel != nil {
			e.emitVisits(workerID, u, nRow, levels, e.phDepth, e.phBatchOffset)
		}
	}
}

// bottomUpTaskNarrow is the stride-1 specialization of bottomUpTask: rows
// are single words indexed straight off the slabs, the inner loop is the
// unrolled branchless accumulate described on bottomUpTask, and the early
// exit compares plain words.
//
//bfs:nocas
//bfs:singlewriter each destination word is read and written by the one worker that owns its range
func (e *MSPBFSEngine) bottomUpTaskNarrow(workerID int, r sched.Range) {
	g, opt := e.g, e.opt
	ov := opt.Overlay
	earlyExit := !opt.DisableEarlyExit
	fw := e.phFrontier.Words()
	nw := e.phNext.Words()
	sw := e.seen.Words()
	mask := e.phMask[0]
	levels := e.phLevels
	scanned := &e.scanned[workerID]
	upd := &e.updated[workerID]
	fv := &e.frontVtx[workerID]
	fd := &e.frontDeg[workerID]
	ud := &e.unseenDeg[workerID]
	live := e.liveBits[workerID]
	var pref uint64
	//bfs:hot bottom-up sweep (single word): runs per vertex per iteration, must not allocate
	for u := r.Lo; u < r.Hi; u++ {
		seen := sw[u] //bfs:bounds-ok u < n by task construction; slab is n words at stride 1
		need := mask &^ seen
		if need == 0 {
			if nw[u] != 0 { //bfs:bounds-ok u < n by task construction
				nw[u] = 0
			}
			continue
		}
		nbrs := g.Neighbors(u) //bfs:bounds-ok inlined CSR offset pair; offsets sized n+1 by Builder
		var acc uint64
		i, ln := 0, len(nbrs)
		if earlyExit {
			for ; i+4 <= ln; i += 4 {
				if i+bottomUpLookahead < ln {
					pref |= fw[nbrs[i+bottomUpLookahead]] //bfs:bounds-ok neighbor ids < n by CSR construction
				}
				// Branchless 4-wide OR-accumulate: four independent loads
				// per step, one early-exit test per group instead of per
				// edge.
				acc |= fw[nbrs[i]] | fw[nbrs[i+1]] | fw[nbrs[i+2]] | fw[nbrs[i+3]] //bfs:bounds-ok neighbor ids < n by CSR construction
				if acc&need == need {
					i += 4
					break
				}
			}
			if acc&need != need {
				for ; i < ln; i++ {
					acc |= fw[nbrs[i]] //bfs:bounds-ok neighbor ids < n by CSR construction
				}
			}
		} else {
			for ; i < ln; i++ {
				acc |= fw[nbrs[i]] //bfs:bounds-ok neighbor ids < n by CSR construction
			}
		}
		scanned.v += int64(i)
		if ov != nil && !(earlyExit && acc&need == need) {
			for _, v := range ov.Extra(u) { //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
				scanned.v++
				acc |= fw[v] //bfs:bounds-ok overlay endpoints < n by ingest validation
				if earlyExit && acc&need == need {
					break
				}
			}
		}
		newBits := acc & need
		nw[u] = newBits //bfs:bounds-ok u < n by task construction
		if newBits == 0 {
			continue
		}
		sw[u] = seen | newBits //bfs:bounds-ok u < n by task construction
		live[0] |= newBits
		upd.v += int64(onesCount(newBits))
		fv.v++
		d := int64(g.Degree(u)) //bfs:bounds-ok inlined CSR offset pair; offsets sized n+1 by Builder
		if ov != nil {
			d += int64(ov.ExtraDegree(u)) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
		}
		fd.v += d
		ud.v += d
		if levels != nil || opt.OnVisit != nil || opt.OnLevel != nil {
			e.emitVisitsNarrow(workerID, u, newBits, levels)
		}
	}
	// Keep the lookahead loads observable (one store per task, not per
	// edge) so the compiler cannot eliminate the prefetch.
	e.prefSink[workerID].v = int64(pref)
}

// runPhase executes one parallel loop, with or without per-worker timing.
func (e *MSPBFSEngine) runPhase(tq *sched.TaskQueues, steal bool, body func(workerID int, r sched.Range)) []time.Duration {
	if e.opt.PerWorkerTiming {
		return e.pool.ParallelForTimed(tq, steal, body)
	}
	if steal {
		e.pool.ParallelFor(tq, body)
	} else {
		e.pool.ParallelForStatic(tq, body)
	}
	return nil
}

// emitVisits hands the newly set bits of vertex v to the traversal's
// sinks: the worker's per-level counter, the recorded levels and the
// OnVisit callback.
func (e *MSPBFSEngine) emitVisits(workerID, v int, newRow []uint64, levels [][]int32, depth int32, batchOffset int) {
	if e.opt.OnLevel != nil {
		e.levelCounts[workerID].add(newRow)
		if levels == nil && e.opt.OnVisit == nil {
			return
		}
	}
	for wi, w := range newRow {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			i := base + trailingZeros64(w)
			if levels != nil && i < len(levels) {
				levels[i][v] = depth
			}
			if e.opt.OnVisit != nil {
				e.opt.OnVisit(workerID, batchOffset+i, v, int(depth))
			}
		}
	}
}

// emitVisitsNarrow is emitVisits for single-word rows.
func (e *MSPBFSEngine) emitVisitsNarrow(workerID, v int, w uint64, levels [][]int32) {
	if e.opt.OnLevel != nil {
		row := [1]uint64{w}
		e.levelCounts[workerID].add(row[:])
		if levels == nil && e.opt.OnVisit == nil {
			return
		}
	}
	for ; w != 0; w &= w - 1 {
		i := trailingZeros64(w)
		if levels != nil && i < len(levels) {
			levels[i][v] = e.phDepth
		}
		if e.opt.OnVisit != nil {
			e.opt.OnVisit(workerID, e.phBatchOffset+i, v, int(e.phDepth))
		}
	}
}

// coversMask reports whether row covers every bit of mask.
func coversMask(row, mask []uint64) bool {
	if len(row) < len(mask) {
		// BCE hint: rows and masks share the batch stride; pinning the
		// relation here keeps the loop free of per-word bounds checks at
		// every (inlined) call site.
		panic("mspbfs: mask wider than row")
	}
	for i := range mask {
		if mask[i]&^row[i] != 0 {
			return false
		}
	}
	return true
}

// coversPair reports whether (a | b) covers every bit of mask.
func coversPair(a, b, mask []uint64) bool {
	if len(a) < len(mask) || len(b) < len(mask) {
		// BCE hint: see coversMask.
		panic("mspbfs: mask wider than row")
	}
	for i := range mask {
		if mask[i]&^(a[i]|b[i]) != 0 {
			return false
		}
	}
	return true
}

func sumBusy(a, b []time.Duration) []time.Duration {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make([]time.Duration, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}
