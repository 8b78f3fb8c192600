// Package server implements bfsd, the batching BFS query service: an HTTP
// front end over the msbfs library that coalesces concurrent single-source
// queries (BFS distances, closeness, reachability, k-hop counts) into wide
// MS-PBFS batches.
//
// The paper's argument is that b concurrent BFS traversals over the same
// graph share most of their work and should run as one array-based
// multi-source pass. Real query traffic, however, arrives one source at a
// time. The Coalescer closes that gap: requests enqueue into a bounded
// pending queue and are flushed as one MultiBFS batch either when a full
// batch (64 x BatchWords sources) has accumulated or when the oldest
// request has waited FlushDeadline — the fill-or-flush policy. One visitor
// pass answers every query kind in the batch; results are demultiplexed
// back to the waiting requests.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	msbfs "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// Runner is the traversal capability the coalescer needs from a local
// graph. It is satisfied by *msbfs.Graph; tests inject wrappers that count
// batch executions.
type Runner interface {
	MultiBFSVisitor(sources []int, opt msbfs.Options,
		visit func(workerID, sourceIdx, vertex, depth int)) *msbfs.MultiResult
	NumVertices() int
}

// BatchRunner is the backend a coalescer actually dispatches batches to.
// Unlike Runner it is context-aware and fallible, which remote backends
// (the cluster coordinator's RemoteGraph) need: a shard death or barrier
// timeout fails the batch instead of panicking, and the batch honors the
// requests' deadlines. Local graphs are adapted via localRunner.
type BatchRunner interface {
	RunBatch(ctx context.Context, sources []int, opt msbfs.Options,
		visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error)
	NumVertices() int
}

// localRunner adapts the infallible in-process Runner to the BatchRunner
// contract. In-process traversals are not cancelable mid-flight; the
// coalescer's per-request demux already handles callers that gave up.
type localRunner struct{ r Runner }

func (lr localRunner) RunBatch(_ context.Context, sources []int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error) {
	return lr.r.MultiBFSVisitor(sources, opt, visit), nil
}

func (lr localRunner) NumVertices() int { return lr.r.NumVertices() }

// GraphSnapshot is a pinned, immutable version of a dynamic graph —
// satisfied structurally by *dyngraph.Snapshot, so the dynamic-graph layer
// never imports the server. The coalescer runs a batch against the
// snapshot its requests pinned at submit time, making every coalesced
// query repeatable-read isolated from concurrent ingest and compaction.
type GraphSnapshot interface {
	Version() uint64
	RunBatch(ctx context.Context, sources []int, opt msbfs.Options,
		visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error)
	Release()
}

// SnapshotSource mints pinned snapshots for the coalescer, one per
// admitted request. Version 0 means "current".
type SnapshotSource interface {
	AcquireVersion(ver uint64) (GraphSnapshot, error)
}

// Kind identifies a query type. All kinds are served from the same batched
// visitor pass.
type Kind string

const (
	// KindBFS answers visited-vertex count, eccentricity and distances to
	// the requested target vertices.
	KindBFS Kind = "bfs"
	// KindCloseness answers the source's closeness centrality
	// (Wasserman-Faust normalization, as msbfs.Graph.Closeness).
	KindCloseness Kind = "closeness"
	// KindReachability answers whether Targets[0] is reachable.
	KindReachability Kind = "reachability"
	// KindKHop answers the number of vertices within Hops hops.
	KindKHop Kind = "khop"
)

// Query is one single-source request.
type Query struct {
	Kind   Kind
	Source int
	// Targets are the distance targets (KindBFS, at most MaxTargets) or
	// the single reachability target (KindReachability).
	Targets []int
	// Hops is the neighborhood radius for KindKHop.
	Hops int
	// Version pins the query to a specific published version of a dynamic
	// graph (0: current). Rejected with ErrBadRequest on static graphs.
	Version uint64
}

// MaxTargets bounds the per-request distance-target list; it keeps the
// per-batch target index small and the response bounded.
const MaxTargets = 1024

// Answer is the demultiplexed per-request result. Only the fields of the
// request's Kind are meaningful.
type Answer struct {
	Visited      int64   // vertices reached, including the source
	Eccentricity int32   // greatest BFS depth reached
	Distances    []int32 // per requested target; msbfs.NoLevel if unreachable
	Closeness    float64
	Reachable    bool
	Count        int64 // vertices within Hops hops, including the source

	BatchWidth   int           // sources in the batch that served this request
	Wait         time.Duration // time spent queued before the batch ran
	Run          time.Duration // traversal time of the serving batch
	TraceID      uint64        // flight-recorder correlation id; 0 when untraced
	GraphVersion uint64        // dynamic-graph version served; 0 on static graphs
}

// Coalescer errors. The HTTP layer maps ErrQueueFull to 429 + Retry-After,
// ErrClosed to 503, and ErrBadRequest to 400.
var (
	ErrQueueFull  = errors.New("server: pending queue full")
	ErrClosed     = errors.New("server: coalescer closed")
	ErrBadRequest = errors.New("server: bad request")
)

// Config tunes a Coalescer (and, via the Server, every per-graph
// coalescer). The zero value is usable; see the field comments for
// defaults.
type Config struct {
	// Workers is the traversal parallelism per batch (<=0: 1).
	Workers int
	// BatchWords is the MS-PBFS bitset width in 64-bit words; a full batch
	// holds 64*BatchWords sources (<=0: 1, clamped to 8).
	BatchWords int
	// MaxBatch overrides the flush width in sources (0: 64*BatchWords).
	// MaxBatch 1 disables coalescing — the per-request serving baseline
	// that cmd/bfsload compares against.
	MaxBatch int
	// FlushDeadline is the longest a queued request waits before a partial
	// batch is flushed (0: 2ms).
	FlushDeadline time.Duration
	// MaxPending bounds the queued (not yet dispatched) requests; beyond
	// it Submit fails fast with ErrQueueFull (0: 4 x flush width).
	MaxPending int
	// RequestTimeout bounds each request server-side (0: 10s). Applied by
	// the HTTP layer, not the Coalescer (Submit honors its Context).
	RequestTimeout time.Duration
	// Engine is the execution engine batch flushes run on, so every flush
	// reuses the same pooled workers and recycled state arrays. The
	// Registry wires its per-daemon engine here; nil falls back to the
	// library's shared default engine.
	Engine *msbfs.Engine
	// Graph labels this coalescer's flight records and spans; the
	// Registry sets it to the graph's registered name.
	Graph string
	// Recorder receives one flight record per admitted or rejected
	// request and issues their trace IDs; nil disables flight recording
	// (trace IDs are then 0).
	Recorder *FlightRecorder
	// Tracer records a span around every batch flush; nil disables.
	Tracer *obs.Tracer
	// Logger receives slow-query warnings (one line per request the
	// Recorder classifies as slow); nil disables.
	Logger *slog.Logger
	// Snapshots makes the coalescer dynamic-graph aware: every admitted
	// request pins a snapshot of its requested version, and each batch is
	// cut on version boundaries so one traversal serves exactly one
	// consistent view. Nil serves the static graph directly.
	Snapshots SnapshotSource
}

func (c Config) normalize() Config {
	// The library's option clamping is the single source of truth for the
	// Workers/BatchWords domains.
	o := msbfs.Options{Workers: c.Workers, BatchWords: c.BatchWords}.Normalize()
	c.Workers = o.Workers
	c.BatchWords = o.BatchWords
	if c.BatchWords == 0 {
		c.BatchWords = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64 * c.BatchWords
	}
	if c.FlushDeadline <= 0 {
		c.FlushDeadline = 2 * time.Millisecond
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4 * c.MaxBatch
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// pendingReq is one queued request with its demux channel.
type pendingReq struct {
	q        Query
	ctx      context.Context
	done     chan outcome
	enqueued time.Time
	traceID  uint64
	// snap is the version pinned for this request at submit time (nil on
	// static graphs). Owned by the request; released exactly once when the
	// request leaves the coalescer, on every path.
	snap GraphSnapshot
}

type outcome struct {
	a   Answer
	err error
}

// Coalescer batches single-source queries against one graph into
// multi-source traversals. Create with NewCoalescer; Close drains it.
type Coalescer struct {
	g     BatchRunner
	cfg   Config
	met   *Metrics
	edges func(sources []int) int64 // Graph500 edge accounting; may be nil
	clk   clock                     // realClock outside tests

	mu       sync.Mutex
	pending  []*pendingReq
	timerGen int // invalidates stale flush timers
	timer    flushTimer
	closed   bool
	wg       sync.WaitGroup // in-flight batch executions
}

// NewCoalescer builds a coalescer over a local graph g. met must be
// non-nil (use NewMetrics); edges may be nil to skip GTEPS accounting.
func NewCoalescer(g Runner, cfg Config, met *Metrics, edges func([]int) int64) *Coalescer {
	return NewBatchCoalescer(localRunner{r: g}, cfg, met, edges)
}

// NewBatchCoalescer builds a coalescer over an arbitrary batch backend —
// the entry point cluster-backed graphs use.
func NewBatchCoalescer(g BatchRunner, cfg Config, met *Metrics, edges func([]int) int64) *Coalescer {
	return &Coalescer{g: g, cfg: cfg.normalize(), met: met, edges: edges, clk: realClock{}}
}

// Config returns the normalized configuration the coalescer runs with.
func (c *Coalescer) Config() Config { return c.cfg }

// QueueLen reports the current pending-queue depth.
func (c *Coalescer) QueueLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// validate rejects malformed queries before they can reach (and panic) the
// traversal layer.
func (c *Coalescer) validate(q Query) error {
	n := c.g.NumVertices()
	if q.Source < 0 || q.Source >= n {
		return fmt.Errorf("%w: source %d out of range [0, %d)", ErrBadRequest, q.Source, n)
	}
	switch q.Kind {
	case KindBFS:
		if len(q.Targets) > MaxTargets {
			return fmt.Errorf("%w: %d targets exceeds the per-request maximum %d",
				ErrBadRequest, len(q.Targets), MaxTargets)
		}
	case KindReachability:
		if len(q.Targets) != 1 {
			return fmt.Errorf("%w: reachability takes exactly one target", ErrBadRequest)
		}
	case KindKHop:
		if q.Hops < 0 {
			return fmt.Errorf("%w: negative hops %d", ErrBadRequest, q.Hops)
		}
	case KindCloseness:
	default:
		return fmt.Errorf("%w: unknown query kind %q", ErrBadRequest, q.Kind)
	}
	if q.Version != 0 && c.cfg.Snapshots == nil {
		return fmt.Errorf("%w: version pinning requires a dynamic graph", ErrBadRequest)
	}
	for _, t := range q.Targets {
		if t < 0 || t >= n {
			return fmt.Errorf("%w: target %d out of range [0, %d)", ErrBadRequest, t, n)
		}
	}
	return nil
}

// Submit enqueues q and blocks until its batch has run or ctx is done. It
// fails fast with ErrQueueFull when the pending queue is at capacity and
// with ErrClosed after Close has begun.
func (c *Coalescer) Submit(ctx context.Context, q Query) (Answer, error) {
	if err := c.validate(q); err != nil {
		return Answer{}, err
	}
	p := &pendingReq{q: q, ctx: ctx, done: make(chan outcome, 1), enqueued: c.clk.Now(),
		traceID: c.cfg.Recorder.NextTraceID()}
	if c.cfg.Snapshots != nil {
		// Pin the requested version before enqueueing: the snapshot fixes
		// which edges this query sees, no matter how long it queues or how
		// much ingest/compaction happens meanwhile.
		snap, err := c.cfg.Snapshots.AcquireVersion(q.Version) //bfs:arena-held released by releaseSnap on every terminal path of the request (reject, cancel, batch completion)
		if err != nil {
			return Answer{}, err
		}
		p.snap = snap
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		releaseSnap(p)
		return Answer{}, ErrClosed
	}
	if len(c.pending) >= c.cfg.MaxPending {
		c.mu.Unlock()
		releaseSnap(p)
		c.met.Rejected.Add(1)
		c.cfg.Recorder.Record(RequestRecord{
			TraceID: p.traceID, Graph: c.cfg.Graph, Kind: string(q.Kind),
			Source: q.Source, Status: "rejected", Start: p.enqueued,
		})
		return Answer{}, ErrQueueFull
	}
	c.met.Requests.Add(1)
	// A batch traverses exactly one graph version. A request pinned to a
	// different version than the batch being filled cuts that batch first
	// and starts a fresh one.
	if len(c.pending) > 0 && snapVersion(c.pending[0]) != snapVersion(p) {
		c.cutLocked()
	}
	c.pending = append(c.pending, p)
	if len(c.pending) >= c.cfg.MaxBatch {
		c.cutLocked()
	} else if len(c.pending) == 1 {
		c.armTimerLocked()
	}
	c.mu.Unlock()

	select {
	case out := <-p.done:
		if out.err == nil {
			c.met.Latency.RecordDuration(c.clk.Now().Sub(p.enqueued))
		}
		return out.a, out.err
	case <-ctx.Done():
		// The request stays in its batch (its slot may already be running);
		// the demux send lands in the buffered channel and is dropped.
		c.met.Canceled.Add(1)
		return Answer{}, ctx.Err()
	}
}

// armTimerLocked schedules a deadline flush for the batch now being filled.
// Caller holds c.mu.
func (c *Coalescer) armTimerLocked() {
	if c.cfg.MaxBatch <= 1 {
		return // width-1 batches always cut immediately; no deadline needed
	}
	gen := c.timerGen
	c.timer = c.clk.AfterFunc(c.cfg.FlushDeadline, func() {
		c.mu.Lock()
		if gen == c.timerGen && !c.closed && len(c.pending) > 0 {
			c.cutLocked()
		}
		c.mu.Unlock()
	})
}

// cutLocked moves the whole pending queue into a batch and dispatches it.
// Caller holds c.mu.
func (c *Coalescer) cutLocked() {
	batch := c.pending
	c.pending = nil
	c.timerGen++ // any armed deadline flush is now stale
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	if len(batch) == 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.runBatch(batch)
	}()
}

// Close stops admission, flushes the remaining pending requests as a final
// batch, and waits for every in-flight batch to finish — the graceful-drain
// path of SIGTERM handling. Safe to call more than once.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	batch := c.pending
	c.pending = nil
	c.timerGen++
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.mu.Unlock()
	if len(batch) > 0 {
		c.runBatch(batch)
	}
	c.wg.Wait()
}

// releaseSnap releases a request's pinned snapshot, if any. Safe on every
// exit path: dyngraph releases are idempotent, but the coalescer still
// releases each pin exactly once.
func releaseSnap(p *pendingReq) {
	if p.snap != nil {
		p.snap.Release()
		p.snap = nil
	}
}

// snapVersion is the batch-cut key: 0 for static graphs (every request
// compatible), the pinned version otherwise.
func snapVersion(p *pendingReq) uint64 {
	if p.snap == nil {
		return 0
	}
	return p.snap.Version()
}

// slotAcc accumulates one source slot's per-worker traversal tallies.
type slotAcc struct {
	sum     int64 // sum of discovery depths (closeness numerator)
	reached int64 // discoveries, including the source at depth 0
	inHops  int64 // discoveries within the slot's khop radius
	maxd    int32 // deepest discovery
}

// runBatch executes one multi-source traversal answering every live
// request in the batch, then demultiplexes the per-slot results.
func (c *Coalescer) runBatch(batch []*pendingReq) {
	now := c.clk.Now()
	// Drop requests whose caller already gave up; their sources would only
	// widen the traversal for nobody.
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			releaseSnap(p)
			wait := now.Sub(p.enqueued)
			c.cfg.Recorder.Record(RequestRecord{
				TraceID: p.traceID, Graph: c.cfg.Graph, Kind: string(p.q.Kind),
				Source: p.q.Source, Status: "canceled", Start: p.enqueued,
				WaitMicros: wait.Microseconds(), TotalMicros: wait.Microseconds(),
			})
			p.done <- outcome{err: err}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	// Every live request pinned the same version (the version-keyed cut in
	// Submit guarantees it); the batch traverses that snapshot. Pins drop
	// only after the demux, so compaction cannot retire the view mid-run.
	defer func() {
		for _, p := range live {
			releaseSnap(p)
		}
	}()

	sources := make([]int, len(live))
	// Per-slot read-only target index (vertex -> Distances position) and
	// shared distance rows. Each (slot, vertex) pair is discovered exactly
	// once across all workers, so workers write disjoint cells.
	targetIdx := make([]map[int]int, len(live))
	dists := make([][]int32, len(live))
	hops := make([]int, len(live)) // -1: not a khop slot
	depthBound := 0                // 0 while any slot needs the full traversal
	allBounded := true
	for i, p := range live {
		sources[i] = p.q.Source
		hops[i] = -1
		switch p.q.Kind {
		case KindKHop:
			hops[i] = p.q.Hops
			if p.q.Hops > depthBound {
				depthBound = p.q.Hops
			}
		default:
			allBounded = false
		}
		if len(p.q.Targets) > 0 {
			idx := make(map[int]int, len(p.q.Targets))
			row := make([]int32, len(p.q.Targets))
			for j, t := range p.q.Targets {
				if _, dup := idx[t]; !dup {
					idx[t] = j
				}
				row[j] = msbfs.NoLevel
			}
			targetIdx[i] = idx
			dists[i] = row
		}
	}

	opt := msbfs.Options{Workers: c.cfg.Workers, Engine: c.cfg.Engine}
	if allBounded {
		// A batch of pure khop queries never needs depths beyond the
		// widest radius; prune the traversal instead of filtering visits.
		opt.MaxDepth = depthBound
	}
	workers := opt.Normalize().Workers
	accs := make([][]slotAcc, workers)
	for w := range accs {
		accs[w] = make([]slotAcc, len(live))
	}

	ctx, cancel := batchContext(live)
	defer cancel()
	runner := c.g.RunBatch
	if live[0].snap != nil {
		runner = live[0].snap.RunBatch
	}
	if allBounded && depthBound == 0 {
		runner = sourcesOnly
	}
	sp := c.cfg.Tracer.StartSpan("coalescer-flush", c.cfg.Graph)
	res, runErr := runner(ctx, sources, opt, func(workerID, sourceIdx, vertex, depth int) {
		a := &accs[workerID][sourceIdx]
		a.sum += int64(depth)
		a.reached++
		if h := hops[sourceIdx]; h >= 0 && depth <= h {
			a.inHops++
		}
		if int32(depth) > a.maxd {
			a.maxd = int32(depth)
		}
		if idx := targetIdx[sourceIdx]; idx != nil {
			if j, ok := idx[vertex]; ok {
				dists[sourceIdx][j] = int32(depth)
			}
		}
	})

	sp.End()

	if runErr != nil {
		// A backend failure (shard down, barrier timeout) fails this batch
		// only: every live request learns the error, and the coalescer keeps
		// serving later batches.
		c.met.BatchErrors.Add(1)
		end := c.clk.Now()
		for _, p := range live {
			c.cfg.Recorder.Record(RequestRecord{
				TraceID: p.traceID, Graph: c.cfg.Graph, Kind: string(p.q.Kind),
				Source: p.q.Source, Status: "error", Start: p.enqueued,
				WaitMicros:  now.Sub(p.enqueued).Microseconds(),
				TotalMicros: end.Sub(p.enqueued).Microseconds(),
				BatchWidth:  len(live),
			})
			p.done <- outcome{err: runErr}
		}
		return
	}

	c.met.Batches.Add(1)
	c.met.Sources.Add(int64(len(live)))
	c.met.BatchWidth.Record(int64(len(live)))
	c.met.RunNanos.Add(int64(res.Elapsed))
	if c.edges != nil {
		c.met.Edges.Add(c.edges(sources))
	}

	end := c.clk.Now()
	n := c.g.NumVertices()
	for i, p := range live {
		var total slotAcc
		for w := range accs {
			a := accs[w][i]
			total.sum += a.sum
			total.reached += a.reached
			total.inHops += a.inHops
			if a.maxd > total.maxd {
				total.maxd = a.maxd
			}
		}
		ans := Answer{
			Visited:      total.reached,
			Eccentricity: total.maxd,
			BatchWidth:   len(live),
			Wait:         now.Sub(p.enqueued),
			Run:          res.Elapsed,
			TraceID:      p.traceID,
			GraphVersion: snapVersion(p),
		}
		switch p.q.Kind {
		case KindBFS:
			// Duplicate targets copy from their representative column.
			ans.Distances = dists[i]
			for j, t := range p.q.Targets {
				if rep := targetIdx[i][t]; rep != j {
					ans.Distances[j] = ans.Distances[rep]
				}
			}
		case KindCloseness:
			ans.Closeness = core.ClosenessFromSums(n, total.sum, total.reached)
		case KindReachability:
			ans.Reachable = dists[i][0] != msbfs.NoLevel
		case KindKHop:
			ans.Count = total.inHops
		}
		// Record before delivering, so a caller that reads the metrics or
		// the flight recorder once its answer arrives finds its request.
		c.met.QueueWait.RecordDuration(ans.Wait)
		c.met.Exec.RecordDuration(res.Elapsed)
		fr := RequestRecord{
			TraceID: p.traceID, Graph: c.cfg.Graph, Kind: string(p.q.Kind),
			Source: p.q.Source, Status: "ok", Start: p.enqueued,
			WaitMicros:  ans.Wait.Microseconds(),
			RunMicros:   res.Elapsed.Microseconds(),
			TotalMicros: end.Sub(p.enqueued).Microseconds(),
			BatchWidth:  len(live),
		}
		if c.cfg.Recorder.Record(fr) && c.cfg.Logger != nil {
			c.cfg.Logger.Warn("slow query",
				"trace_id", fr.TraceID, "graph", fr.Graph, "kind", fr.Kind,
				"source", fr.Source, "wait_us", fr.WaitMicros, "run_us", fr.RunMicros,
				"total_us", fr.TotalMicros, "batch_width", fr.BatchWidth)
		}
		p.done <- outcome{a: ans}
	}
}

// batchContext derives the context a batch dispatch runs under from its
// live requests: the latest deadline among them, so one short-deadline
// request cannot abort the shared traversal, and no deadline at all if any
// request is unbounded. Remote backends propagate it to their RPCs.
func batchContext(live []*pendingReq) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, p := range live {
		dl, ok := p.ctx.Deadline()
		if !ok {
			return context.Background(), func() {}
		}
		if dl.After(latest) {
			latest = dl
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// sourcesOnly is the batch runner for a batch of khop queries whose widest
// radius is 0. MaxDepth 0 would mean an unlimited traversal, and every
// answer is the source alone, so it visits each source at depth 0 and
// traverses nothing.
func sourcesOnly(_ context.Context, sources []int, _ msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error) {
	for i, s := range sources {
		visit(0, i, s, 0)
	}
	return &msbfs.MultiResult{Sources: sources, VisitedStates: int64(len(sources))}, nil
}
