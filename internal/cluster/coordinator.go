package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	msbfs "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// CoordinatorOptions tunes a Coordinator.
type CoordinatorOptions struct {
	// Tracer, when non-nil, records one flight-record traversal per
	// cluster query, with per-iteration frontier counts and the delta
	// exchange volume/compression ratio.
	Tracer *obs.Tracer
	// DialTimeout bounds the initial shard dials (0: 5s).
	DialTimeout time.Duration
}

// Coordinator is the query-side half of cluster mode: it owns one control
// connection per shard, partitions and ships graphs, and drives the
// level-synchronous barrier of every query, expanding the per-level
// frontiers the shards report back into the single-process result shape.
type Coordinator struct {
	addrs  []string
	conns  []*rpcConn
	tracer *obs.Tracer
	met    *Metrics
	nextID atomic.Uint64
}

// NewCoordinator dials every shard's control port. All shards must be
// reachable: a cluster with a dead shard cannot answer any query, so
// failing at attach time beats failing at first query.
func NewCoordinator(ctx context.Context, addrs []string, opt CoordinatorOptions) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no shard addresses")
	}
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = 5 * time.Second
	}
	c := &Coordinator{addrs: addrs, tracer: opt.Tracer, met: &Metrics{}}
	dctx, cancel := context.WithTimeout(ctx, opt.DialTimeout)
	defer cancel()
	for _, addr := range addrs {
		rc, err := dialShard(dctx, addr)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, rc)
	}
	return c, nil
}

// Metrics returns the coordinator's cluster metrics.
func (c *Coordinator) Metrics() *Metrics { return c.met }

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.addrs) }

// Close tears down the control connections. Shards keep running (they are
// separate processes); their own lifecycle closes them.
func (c *Coordinator) Close() {
	for _, rc := range c.conns {
		if rc != nil {
			rc.close()
		}
	}
}

// call issues one RPC to shard s, recording its latency.
func (c *Coordinator) call(ctx context.Context, s int, typ byte, payload []byte) ([]byte, error) {
	start := time.Now()
	out, err := c.conns[s].call(ctx, typ, payload)
	c.met.observeRPC(time.Since(start))
	return out, err
}

// fanOut runs fn against every shard concurrently and returns the first
// error. The shard RPCs of one barrier round must overlap — a serial loop
// would turn the level barrier into nShards sequential round trips.
func (c *Coordinator) fanOut(fn func(shard int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(c.conns))
	for s := range c.conns {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	// A dead shard usually takes the survivors down with it indirectly
	// (their barrier waits starve and time out). Prefer the typed
	// root-cause error over whichever secondary failure happens to sit
	// on a lower shard index, so callers racing a shard loss always see
	// ErrShardDown.
	// Calls that a sibling's failure abandoned report context.Canceled;
	// any other error is closer to the cause.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrShardDown) {
			return err
		}
		if first == nil || errors.Is(first, context.Canceled) && !errors.Is(err, context.Canceled) {
			first = err
		}
	}
	return first
}

// RemoteGraph is a graph loaded across the coordinator's shards. It
// implements the query server's batch-runner contract, so a cluster-backed
// graph serves the same bfs/closeness/reachability/khop surface as a local
// one.
type RemoteGraph struct {
	c    *Coordinator
	name string
	n    int
	part Partition
}

// Name returns the graph's registered name.
func (rg *RemoteGraph) Name() string { return rg.name }

// NumVertices returns the global vertex count.
func (rg *RemoteGraph) NumVertices() int { return rg.n }

// LoadGraph partitions g into contiguous vertex slices and ships one to
// each shard. workers is the per-shard traversal parallelism. Neighbor
// ids stay global in the shipped adjacency; offsets are rebased per
// slice.
func (c *Coordinator) LoadGraph(ctx context.Context, name string, g *msbfs.Graph, workers int) (*RemoteGraph, error) {
	n := g.NumVertices()
	part := MakePartition(n, len(c.addrs))
	offsets, adjacency := g.CSR()
	err := c.fanOut(func(s int) error {
		lo, hi := part.Range(s)
		local := make([]int64, hi-lo+1)
		base := offsets[lo]
		for i := range local {
			local[i] = offsets[lo+i] - base
		}
		payload := encodeLoad(&loadMsg{
			name: name, shardID: s, numShards: len(c.addrs),
			n: n, workers: workers, peers: c.addrs,
			offsets: local, adjacency: adjacency[offsets[lo]:offsets[hi]],
		})
		_, err := c.call(ctx, s, msgLoad, payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &RemoteGraph{c: c, name: name, n: n, part: part}, nil
}

// replayQueue bounds how many levels the barrier loop may run ahead of
// the visitor replay: enough to keep the shards stepping through a slow
// level's replay, few enough that the queued payloads stay a handful of
// frontiers.
const replayQueue = 4

// RunBatch executes sources as k-wide cluster traversals (batches of up
// to 64*BatchWords slots, 512 max) and streams every (source, vertex,
// depth) discovery, seeds included at depth 0, to visit — the same set of
// calls as msbfs.Graph.MultiBFSVisitor. visit is always called
// sequentially on the caller's goroutine as workerID 0, so a panicking
// visitor panics there. Within a batch the calls come level by level,
// vertices ascending within a level and slots ascending within a vertex;
// callers must not rely on any other order. A level's visits run while
// the shards compute the next levels. A failed batch may have delivered
// part of its visits before RunBatch returns the error; none come after
// it returns. A connection-level failure aborts with an error wrapping
// ErrShardDown.
func (rg *RemoteGraph) RunBatch(ctx context.Context, sources []int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error) {
	opt = opt.Normalize()
	for _, s := range sources {
		if s < 0 || s >= rg.n {
			return nil, fmt.Errorf("cluster: source %d out of range [0,%d)", s, rg.n)
		}
	}
	perBatch := 64 * opt.BatchWords
	if perBatch <= 0 || perBatch > maxBatchSources {
		perBatch = maxBatchSources
	}
	start := time.Now()
	res := &msbfs.MultiResult{Sources: append([]int(nil), sources...)}
	if opt.RecordLevels {
		res.Levels = make([][]int32, len(sources))
	}
	for off := 0; off < len(sources); off += perBatch {
		hi := off + perBatch
		if hi > len(sources) {
			hi = len(sources)
		}
		if err := rg.runOne(ctx, sources[off:hi], off, opt, visit, res); err != nil {
			return nil, err
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// runOne drives a single k-wide batch: start on every shard, step the
// level barrier until all frontiers drain (or MaxDepth is reached), then
// release the shards' state. When visit or RecordLevels consumes the
// answer, msgStart asks the shards for levels: the start replies carry
// the seed level and every step reply that step's discoveries. The
// barrier loop then runs on one supervised goroutine and hands each
// level to this goroutine over a queue of replayQueue levels, and this
// goroutine replays it as visits and level rows while the shards compute
// the next levels. A replay error (or a visitor panic) stops the loop at
// its next level boundary; a step error stops the replay at its next
// level boundary; the loop has exited before runOne returns. Without a
// consumer the loop runs inline and VisitedStates comes from the step
// replies alone. The query's flight record is published on every return
// path, failed queries included.
func (rg *RemoteGraph) runOne(ctx context.Context, batch []int, batchOffset int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int), res *msbfs.MultiResult) (err error) {
	c := rg.c
	c.met.Queries.Add(1)
	qid := c.nextID.Add(1)
	k := len(batch)
	wantLevels := visit != nil || opt.RecordLevels

	// A traced coordinator announces its trace id on msgStart; the shards
	// then measure every step and piggyback the sub-phase times on the
	// reply. Untraced queries send a zero id, which encodeStart encodes as
	// zero extra bytes when no levels are wanted (one zero byte before the
	// levels flag otherwise) — the shards never read the clock for them.
	tv := c.tracer.StartTraversal("cluster/ms-pbfs", k)
	var traceID uint64
	if tv != nil {
		traceID = tv.ID
	}
	// The query ends the same way on every path: count a failure, publish
	// the flight record, then release the shards' engine-borrowed state
	// for qid. The release also covers a partly failed start, since ending
	// an unknown query succeeds. On the error path a shard may already be
	// gone, so the release is best-effort under its own short deadline.
	defer func() {
		if err != nil {
			c.met.QueryErrors.Add(1)
			if tv != nil {
				tv.Err = err.Error()
			}
		}
		tv.Finish(0, 0)
		endCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.fanOut(func(s int) error {
			if !c.conns[s].healthy() {
				return nil
			}
			_, err := c.call(endCtx, s, msgEnd, encodeQueryRef(qid))
			return err
		})
	}()

	seeds := make([][]byte, len(c.conns))
	if err := c.fanOut(func(s int) error {
		out, err := c.call(ctx, s, msgStart, encodeStart(qid, rg.name, batch, traceID, wantLevels))
		seeds[s] = out
		return err
	}); err != nil {
		return err
	}

	b := &barrier{rg: rg, qid: qid, k: k, maxDepth: opt.MaxDepth, tv: tv, traced: traceID != 0}
	if !wantLevels {
		if err := b.run(ctx, ctx, nil); err != nil {
			return err
		}
		res.VisitedStates += b.visited
		return nil
	}

	stop, cancel := context.WithCancel(ctx)
	queue := make(chan [][]byte, replayQueue)
	failed := make(chan struct{}) // closed when the loop fails; stepErr is then set
	var stepErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		if stepErr = b.run(ctx, stop, queue); stepErr != nil {
			close(failed)
		}
	}()
	// Join the loop on every return path, a visitor panic included, so
	// the flight record and the shards' state are released after it.
	defer func() {
		cancel()
		wg.Wait()
	}()

	var levels [][]int32
	if opt.RecordLevels {
		levels = res.Levels[batchOffset : batchOffset+k]
		for i := range levels {
			row := make([]int32, rg.n)
			for v := range row {
				row[v] = core.NoLevel
			}
			levels[i] = row
		}
	}
	rp := newLevelReplay(rg.part, k, batchOffset, levels, visit)
	if err := rp.replay(0, seeds); err != nil {
		return err
	}
	for depth := 1; ; depth++ {
		payloads, ok := <-queue
		select {
		case <-failed:
			return stepErr
		default:
		}
		if !ok {
			break
		}
		if err := rp.replay(depth, payloads); err != nil {
			return err
		}
	}
	// VisitedStates counts (vertex, source) discoveries exactly as the
	// in-process kernel does: one per batch slot at seed time plus every
	// new state each level produced.
	res.VisitedStates += b.visited
	return nil
}

// barrier is one batch's level-synchronous step loop. The sources seed
// level 0; iteration L discovers the level-L states. It records the
// query's flight record and exchange metrics as it goes.
type barrier struct {
	rg       *RemoteGraph
	qid      uint64
	k        int
	maxDepth int
	tv       *obs.Traversal
	traced   bool

	// visited counts (vertex, source) states cluster-wide, seeds included:
	// the same accounting the in-process kernel's heuristic uses.
	visited int64
}

// run steps every shard until the frontiers drain or maxDepth is
// reached. ctx bounds the step RPCs. A non-nil queue means the query
// wants levels: each level's per-shard payloads are sent on it in shard
// order. stop ends the loop at
// a level boundary or while a send waits for queue space, never inside a
// step. A failed step call abandons the level's other calls at once: a
// lost shard would otherwise hold its peers at the barrier until their
// step deadline. The query's msgEnd then aborts those steps shard-side.
func (b *barrier) run(ctx, stop context.Context, queue chan<- [][]byte) error {
	c := b.rg.c
	totalNext := int64(b.k)
	b.visited = int64(b.k)
	level := 0
	var steps []obs.ShardStep // per-shard scratch, reused across levels
	if b.traced {
		steps = make([]obs.ShardStep, len(c.conns))
	}
	for totalNext > 0 {
		if b.maxDepth > 0 && level >= b.maxDepth {
			break
		}
		if err := stop.Err(); err != nil {
			return err
		}
		level++
		iterStart := time.Now()
		frontier := totalNext
		var nextSum, sentSum, rawSum atomic.Int64
		var payloads [][]byte
		if queue != nil {
			payloads = make([][]byte, len(c.conns))
		}
		stepPayload := encodeQueryRef(b.qid, uint64(level))
		lctx, abandon := context.WithCancel(ctx)
		err := c.fanOut(func(s int) error {
			// Each fanOut goroutine writes only its own steps[s] and
			// payloads[s] elements.
			var reqSent time.Time
			if b.traced {
				steps[s] = obs.ShardStep{}
				reqSent = time.Now()
			}
			out, err := c.call(lctx, s, msgStep, stepPayload)
			if err != nil {
				abandon()
				return err
			}
			d, err := decodeStepDone(out, queue != nil)
			if err != nil {
				return err
			}
			if payloads != nil {
				payloads[s] = d.level
			}
			nextSum.Add(d.nextStates)
			sentSum.Add(d.sentBytes)
			rawSum.Add(d.rawBytes)
			if b.traced && d.trace != nil {
				steps[s] = obs.ShardStep{
					Shard: s, Level: level,
					ReqSent: reqSent, ReplyRecv: time.Now(),
					Scan:       time.Duration(d.trace.scanNanos),
					Encode:     time.Duration(d.trace.encodeNanos),
					Send:       time.Duration(d.trace.sendNanos),
					Wait:       time.Duration(d.trace.waitNanos),
					Decode:     time.Duration(d.trace.decodeNanos),
					Apply:      time.Duration(d.trace.applyNanos),
					NextStates: d.nextStates, SentBytes: d.sentBytes, RawBytes: d.rawBytes,
				}
			}
			return nil
		})
		abandon()
		if err != nil {
			return err
		}
		for _, st := range steps {
			if !st.ReplyRecv.IsZero() {
				b.tv.RecordShardStep(st)
			}
		}
		totalNext = nextSum.Load()
		b.visited += totalNext
		c.met.FrontierBytes.Add(sentSum.Load())
		c.met.FrontierRawBytes.Add(rawSum.Load())
		b.tv.Record(obs.IterationRecord{
			Iteration:        level,
			Reason:           "cluster/1d-exchange",
			Frontier:         frontier,
			Next:             totalNext,
			Visited:          b.visited,
			Duration:         time.Since(iterStart),
			ExchangeBytes:    sentSum.Load(),
			ExchangeRawBytes: rawSum.Load(),
		})
		if queue != nil {
			select {
			case queue <- payloads:
			case <-stop.Done():
				return stop.Err()
			}
		}
	}
	return nil
}

// levelReplay expands a k-wide batch's levels, as the shards report
// them, into visits and level rows: every state (slot, vertex) first
// reached at level L sets levels[slot][vertex] = L when levels is non-nil
// and calls visit(0, batchOffset+slot, vertex, L) when visit is non-nil.
// Each shard's payload is decoded into one reused scratch slab, which the
// walk clears as it goes.
type levelReplay struct {
	part        Partition
	k, words    int
	lastMask    uint64 // bits of a row's last word that belong to real slots
	batchOffset int
	levels      [][]int32
	visit       func(workerID, sourceIdx, vertex, depth int)
	scratch     []uint64
	seen        []uint64 // bfsdebug: every state reported so far
}

func newLevelReplay(part Partition, k, batchOffset int, levels [][]int32,
	visit func(workerID, sourceIdx, vertex, depth int)) *levelReplay {
	words := (k + 63) / 64
	maxLen := 0
	for s := 0; s < part.NumShards(); s++ {
		maxLen = max(maxLen, part.Len(s))
	}
	rp := &levelReplay{
		part: part, k: k, words: words,
		lastMask:    ^uint64(0) >> (uint(-k) & 63),
		batchOffset: batchOffset, levels: levels, visit: visit,
		scratch: make([]uint64, maxLen*words),
	}
	if debugInvariants {
		rp.seen = make([]uint64, part.N()*words)
	}
	return rp
}

// replay validates and expands one level: payloads holds one delta-codec
// payload per shard, in shard order. Each must decode as the shard's
// range length x words states with no bit at a slot >= k. The bfsdebug
// build also rejects a state reported at two levels.
func (rp *levelReplay) replay(depth int, payloads [][]byte) error {
	if len(payloads) != rp.part.NumShards() {
		return fmt.Errorf("cluster: level %d has %d shard payloads, want %d", depth, len(payloads), rp.part.NumShards())
	}
	words, levels, visit, off := rp.words, rp.levels, rp.visit, rp.batchOffset
	for s, payload := range payloads {
		lo, hi := rp.part.Range(s)
		slab := rp.scratch[:(hi-lo)*words]
		if err := decodeDelta(payload, slab, hi-lo, words); err != nil {
			return fmt.Errorf("cluster: shard %d level %d: %w", s, depth, err)
		}
		for v := 0; v < hi-lo; v++ {
			row := slab[v*words : (v+1)*words]
			for wi, w := range row {
				if w == 0 {
					continue
				}
				row[wi] = 0 //bfs:singlewriter the scratch slab is private to this replay
				if wi == words-1 && w&^rp.lastMask != 0 {
					return fmt.Errorf("cluster: shard %d level %d: vertex %d has slots beyond batch width %d", s, depth, lo+v, rp.k)
				}
				if debugInvariants {
					i := (lo+v)*words + wi
					if dup := rp.seen[i] & w; dup != 0 {
						return fmt.Errorf("bfsdebug: cluster result: vertex %d reaches slot %d again at level %d",
							lo+v, wi*64+bits.TrailingZeros64(dup), depth)
					}
					rp.seen[i] |= w //bfs:singlewriter the seen slab is private to this replay
				}
				for b := w; b != 0; b &= b - 1 {
					slot := wi*64 + bits.TrailingZeros64(b)
					if levels != nil {
						levels[slot][lo+v] = int32(depth)
					}
					if visit != nil {
						visit(0, off+slot, lo+v, depth)
					}
				}
			}
		}
	}
	return nil
}
