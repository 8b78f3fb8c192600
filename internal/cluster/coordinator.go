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
// level-synchronous barrier of every query, expanding the shards'
// per-level frontier logs back into the single-process result shape.
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
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrShardDown) {
			return err
		}
		if first == nil {
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

// RunBatch executes sources as k-wide cluster traversals (batches of up
// to 64*BatchWords slots, 512 max) and streams every (source, vertex,
// depth) discovery, seeds included at depth 0, to visit — the same set of
// calls as msbfs.Graph.MultiBFSVisitor. visit is always called
// sequentially as workerID 0. Within a batch the calls come level by
// level, vertices ascending within a level and slots ascending within a
// vertex; callers must not rely on any other order. A failed batch may
// have delivered part of its visits before RunBatch returns the error. A
// connection-level failure aborts with an error wrapping ErrShardDown.
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
// level barrier until all frontiers drain (or MaxDepth is reached), fetch
// each shard's per-level frontier log and replay it as visits and level
// rows, then release the shards' state. When neither visit nor
// RecordLevels consumes the answer, the fetch is skipped: VisitedStates
// comes from the step replies alone. The query's flight record is
// published on every return path, failed queries included.
func (rg *RemoteGraph) runOne(ctx context.Context, batch []int, batchOffset int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int), res *msbfs.MultiResult) (err error) {
	c := rg.c
	c.met.Queries.Add(1)
	qid := c.nextID.Add(1)
	k := len(batch)

	// A traced coordinator announces its trace id on msgStart; the shards
	// then measure every step and piggyback the sub-phase times on the
	// reply. Untraced queries send a zero id, which encodeStart encodes as
	// zero extra bytes — the shards never read the clock for them.
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

	if err := c.fanOut(func(s int) error {
		_, err := c.call(ctx, s, msgStart, encodeStart(qid, rg.name, batch, traceID))
		return err
	}); err != nil {
		return err
	}

	// Level barrier. The sources seed level 0; iteration L discovers the
	// level-L states. totalNext counts (vertex, source) states cluster-wide,
	// the same accounting the in-process kernel's heuristic uses.
	totalNext := int64(k)
	var visited int64 = int64(k)
	level := 0
	var steps []obs.ShardStep // per-shard scratch, reused across levels
	if traceID != 0 {
		steps = make([]obs.ShardStep, len(c.conns))
	}
	for totalNext > 0 {
		if opt.MaxDepth > 0 && level >= opt.MaxDepth {
			break
		}
		level++
		iterStart := time.Now()
		frontier := totalNext
		var nextSum, sentSum, rawSum atomic.Int64
		stepPayload := encodeQueryRef(qid, uint64(level))
		if err := c.fanOut(func(s int) error {
			// Each fanOut goroutine writes only its own steps[s] element.
			var reqSent time.Time
			if traceID != 0 {
				steps[s] = obs.ShardStep{}
				reqSent = time.Now()
			}
			out, err := c.call(ctx, s, msgStep, stepPayload)
			if err != nil {
				return err
			}
			d, err := decodeStepDone(out)
			if err != nil {
				return err
			}
			nextSum.Add(d.nextStates)
			sentSum.Add(d.sentBytes)
			rawSum.Add(d.rawBytes)
			if traceID != 0 && d.trace != nil {
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
		}); err != nil {
			return err
		}
		for _, st := range steps {
			if !st.ReplyRecv.IsZero() {
				tv.RecordShardStep(st)
			}
		}
		totalNext = nextSum.Load()
		visited += totalNext
		c.met.FrontierBytes.Add(sentSum.Load())
		c.met.FrontierRawBytes.Add(rawSum.Load())
		tv.Record(obs.IterationRecord{
			Iteration:        level,
			Reason:           "cluster/1d-exchange",
			Frontier:         frontier,
			Next:             totalNext,
			Visited:          visited,
			Duration:         time.Since(iterStart),
			ExchangeBytes:    sentSum.Load(),
			ExchangeRawBytes: rawSum.Load(),
		})
	}

	// VisitedStates counts (vertex, source) discoveries exactly as the
	// in-process kernel does: one per batch slot at seed time plus every
	// new state each level produced.
	res.VisitedStates += visited
	if visit == nil && !opt.RecordLevels {
		return nil
	}

	// Fetch every shard's level log, then replay them on this goroutine.
	replies := make([][]byte, len(c.conns))
	if err := c.fanOut(func(s int) error {
		out, err := c.call(ctx, s, msgResult, encodeQueryRef(qid))
		replies[s] = out
		return err
	}); err != nil {
		return err
	}
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
	return replayLevels(replies, rg.part, k, level, batchOffset, levels, visit)
}

// replayLevels validates the shards' msgResult replies for a k-wide batch
// that ran steps barrier rounds over part, then expands them level by
// level across the shards: every state (slot, vertex) first reached at
// level L sets levels[slot][vertex] = L when levels is non-nil and calls
// visit(0, batchOffset+slot, vertex, L) when visit is non-nil. Each level
// payload is decoded into one reused scratch slab, which the walk clears
// as it goes.
//
// A reply must carry exactly k slots, the shard's range length and
// steps+1 levels, and every payload must decode within that shape with no
// bit at a slot >= k. The bfsdebug build also rejects a state reported at
// two levels.
func replayLevels(replies [][]byte, part Partition, k, steps, batchOffset int, levels [][]int32,
	visit func(workerID, sourceIdx, vertex, depth int)) error {
	words := (k + 63) / 64
	// Bits of a row's last word that belong to real slots.
	lastMask := ^uint64(0) >> (uint(-k) & 63)
	logs := make([][][]byte, len(replies))
	maxLen := 0
	for s, out := range replies {
		rlen := part.Len(s)
		gotK, gotR, lv, err := decodeResultLevels(out)
		if err != nil {
			return fmt.Errorf("cluster: shard %d result: %w", s, err)
		}
		if gotK != k || gotR != rlen {
			return fmt.Errorf("cluster: shard %d returned %d slots x %d vertices, want %dx%d", s, gotK, gotR, k, rlen)
		}
		if len(lv) != steps+1 {
			return fmt.Errorf("cluster: shard %d returned %d levels after %d steps", s, len(lv), steps)
		}
		logs[s] = lv
		maxLen = max(maxLen, rlen)
	}
	scratch := make([]uint64, maxLen*words)
	var seen []uint64
	if debugInvariants {
		seen = make([]uint64, part.N()*words)
	}
	for depth := 0; depth <= steps; depth++ {
		for s, lv := range logs {
			lo, hi := part.Range(s)
			slab := scratch[:(hi-lo)*words]
			if err := decodeDelta(lv[depth], slab, hi-lo, words); err != nil {
				return fmt.Errorf("cluster: shard %d level %d: %w", s, depth, err)
			}
			for v := 0; v < hi-lo; v++ {
				row := slab[v*words : (v+1)*words]
				for wi, w := range row {
					if w == 0 {
						continue
					}
					row[wi] = 0 //bfs:singlewriter the scratch slab is private to this call
					if wi == words-1 && w&^lastMask != 0 {
						return fmt.Errorf("cluster: shard %d level %d: vertex %d has slots beyond batch width %d", s, depth, lo+v, k)
					}
					if debugInvariants {
						i := (lo+v)*words + wi
						if dup := seen[i] & w; dup != 0 {
							return fmt.Errorf("bfsdebug: cluster result: vertex %d reaches slot %d again at level %d",
								lo+v, wi*64+bits.TrailingZeros64(dup), depth)
						}
						seen[i] |= w //bfs:singlewriter the seen slab is private to this call
					}
					for b := w; b != 0; b &= b - 1 {
						slot := wi*64 + bits.TrailingZeros64(b)
						if levels != nil {
							levels[slot][lo+v] = int32(depth)
						}
						if visit != nil {
							visit(0, batchOffset+slot, lo+v, depth)
						}
					}
				}
			}
		}
	}
	return nil
}
