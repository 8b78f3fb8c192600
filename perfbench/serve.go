package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	msbfs "repro"
	"repro/internal/dyngraph"
	"repro/internal/server"
)

const (
	serveScale = 14
	rateR1     = 500.0  // requests/s
	rateR2     = 1500.0 // requests/s
	// window is the span over which one latency percentile is taken. A
	// phase reports the median over its windows, so that one stall of a
	// shared host does not decide the run's figure.
	window = 2 * time.Second
	// outstanding is how many queries the saturation phase keeps in
	// flight: twice the default flush width, below the server's default
	// pending bound of four widths, so no request is refused.
	outstanding = 128
	// warmup is the unmeasured traffic at rateR1 that fills the engine's
	// arenas, opens the connection and grows the heap to its working size
	// before the first measured phase.
	warmup = window

	ingestRate  = 100.0 // edge batches/s
	ingestEdges = 64
	// ingestMaxDelta caps the uncompacted overlay so that the compactor,
	// which starts at half of it, runs several times in every latency
	// window, so that each window's tail holds a like mix of compaction
	// stalls.
	ingestMaxDelta = 1 << 14
	// oracleChecks is about how many answers per phase are checked.
	oracleChecks = 300
	graphName    = "g"
)

// service is the query server behind the benchmark's own loopback HTTP
// server, and the client that drives it.
type service struct {
	reg    *server.Registry
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	lg     *loadgen
	loadS  float64 // the registry load alone
}

func startService(e *env, dynamic bool) (*service, error) {
	s := &service{reg: server.NewRegistry(), served: make(chan struct{})}
	cfg := server.Config{Workers: e.nproc}
	spec := fmt.Sprintf("kron:scale=%d,edgefactor=%d,seed=%d", serveScale, edgeFactor, specSeed(e.seed))
	t0 := time.Now()
	var err error
	if dynamic {
		_, err = s.reg.LoadDynamic(graphName, spec, cfg, dyngraph.Config{MaxDelta: ingestMaxDelta, AutoCompact: true})
	} else {
		_, err = s.reg.Load(graphName, spec, cfg)
	}
	if err != nil {
		s.reg.Close()
		return nil, err
	}
	s.loadS = time.Since(t0).Seconds()
	s.srv = server.New(s.reg, cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	var p http.Protocols
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	s.hs = &http.Server{Handler: s.srv, Protocols: &p, HTTP2: &http.HTTP2Config{MaxConcurrentStreams: maxInflight}}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(lis) // returns http.ErrServerClosed after Shutdown
	}()
	s.lg = newLoadgen("http://"+lis.Addr().String(), e.nproc)
	if _, err := s.lg.get(context.Background(), "/healthz"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the HTTP server, waits for its serve loop, then drains the
// registry.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves only idle connections behind
	<-s.served
	s.lg.close()
	s.srv.Close()
}

// specSeed keeps a seed within the registry spec's integer range.
func specSeed(seed uint64) uint64 { return seed & (1<<62 - 1) }

// setupService starts the service setupReps times and keeps the last;
// setup_s is the median time from registry load to the first answered
// request.
func (e *env) setupService() (*service, error) {
	var s *service
	var loads []float64
	setup, err := repeatSetup(func() error {
		var err error
		s, err = startService(e, false)
		if err == nil {
			loads = append(loads, s.loadS)
		}
		return err
	}, func() { s.close() })
	if err != nil {
		return nil, err
	}
	if e.traced {
		e.set("server.load_s", median(loads), fmt.Sprintf("median of %d", setupReps))
		for _, sp := range s.reg.Tracer().Snapshot().Spans {
			if sp.Name == "relabel" {
				e.set("label.relabel_s", sp.Duration.Seconds(), "last setup")
			}
		}
	} else {
		e.set("setup_s", setup, fmt.Sprintf("median of %d", setupReps))
	}
	return s, nil
}

// reference is the graph the server was loaded from, before its striped
// relabeling, so that it answers in the same external ids as the server.
// Edges posted to a dynamic graph are added with addEdges.
type reference struct {
	g     *msbfs.Graph
	cache map[int][]int32
}

func (e *env) newReference() *reference {
	t0 := time.Now()
	g := msbfs.GenerateKronecker(serveScale, edgeFactor, specSeed(e.seed))
	if e.traced {
		e.set("gen.kron_s", time.Since(t0).Seconds(), "the reference graph's generation")
	}
	return &reference{g: g, cache: map[int][]int32{}}
}

// addEdges rebuilds the reference with the accepted ingest batches added.
func (r *reference) addEdges(batches [][][2]uint32) {
	offsets, adj := r.g.CSR()
	var edges []msbfs.Edge
	for u := 0; u+1 < len(offsets); u++ {
		for _, v := range adj[offsets[u]:offsets[u+1]] {
			if uint32(u) < v {
				edges = append(edges, msbfs.Edge{U: uint32(u), V: v})
			}
		}
	}
	for _, b := range batches {
		for _, p := range b {
			edges = append(edges, msbfs.Edge{U: p[0], V: p[1]})
		}
	}
	r.g = msbfs.NewGraph(r.g.NumVertices(), edges)
	r.cache = map[int][]int32{}
}

func (r *reference) levels(s int) []int32 {
	l, ok := r.cache[s]
	if !ok {
		l = r.g.SequentialBFS(s).Levels
		r.cache[s] = l
	}
	return l
}

// check compares one answer with the reference and describes a mismatch.
func (r *reference) check(q query, a response) string {
	lv := r.levels(q.source)
	switch q.kind {
	case "bfs":
		var visited int64
		var ecc int32
		for _, l := range lv {
			if l != msbfs.NoLevel {
				visited++
				ecc = max(ecc, l)
			}
		}
		if a.Visited != visited || a.Eccentricity != ecc || len(a.Distances) != len(q.targets) {
			return fmt.Sprintf("bfs from %d: visited %d ecc %d, want %d %d", q.source, a.Visited, a.Eccentricity, visited, ecc)
		}
		for i, t := range q.targets {
			if a.Distances[i] != lv[t] {
				return fmt.Sprintf("bfs from %d: distance to %d is %d, want %d", q.source, t, a.Distances[i], lv[t])
			}
		}
	case "closeness":
		if want := closenessOf(lv); !closeEnough(a.Closeness, want) {
			return fmt.Sprintf("closeness of %d: %v, want %v", q.source, a.Closeness, want)
		}
	case "reachability":
		want := lv[q.target] != msbfs.NoLevel
		if a.Reachable == nil || *a.Reachable != want {
			return fmt.Sprintf("reachability %d->%d: %v, want %v", q.source, q.target, a.Reachable, want)
		}
	case "khop":
		var count int64
		for _, l := range lv {
			if l != msbfs.NoLevel && int(l) <= q.hops {
				count++
			}
		}
		if a.Count != count {
			return fmt.Sprintf("khop %d from %d: %d, want %d", q.hops, q.source, a.Count, count)
		}
	}
	return ""
}

// queryMix makes an even mix of /bfs, /closeness, /reachability and
// /khop requests from random sources of an n-vertex graph.
func queryMix(n int) func(*rand.Rand) request {
	return func(rng *rand.Rand) request {
		q := query{source: rng.IntN(n)}
		body := map[string]any{"graph": graphName, "source": q.source}
		switch rng.IntN(4) {
		case 0:
			q.kind = "bfs"
			for range 4 {
				q.targets = append(q.targets, rng.IntN(n))
			}
			body["targets"] = q.targets
		case 1:
			q.kind = "closeness"
		case 2:
			q.kind = "reachability"
			q.target = rng.IntN(n)
			body["target"] = q.target
		case 3:
			q.kind = "khop"
			q.hops = 1 + rng.IntN(3)
			body["hops"] = q.hops
		}
		b, _ := json.Marshal(body) // a map of ints and int slices always encodes
		return request{path: "/" + q.kind, body: b, q: q}
	}
}

// ingestMix makes POST /graphs/g/edges requests of ingestEdges random
// edges each.
func ingestMix(n int) func(*rand.Rand) request {
	return func(rng *rand.Rand) request {
		edges := make([][2]uint32, ingestEdges)
		for i := range edges {
			edges[i] = [2]uint32{uint32(rng.IntN(n)), uint32(rng.IntN(n))}
		}
		b, _ := json.Marshal(map[string]any{"edges": edges})
		return request{path: "/graphs/" + graphName + "/edges", body: b, q: query{kind: "ingest", edges: edges}}
	}
}

// phaseRNG gives every phase of a run its own seeded stream.
func (e *env) phaseRNG(phase uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.seed, phase))
}

// count counts requests into attempted and failed.
func (e *env) count(outs []outcome) {
	for i := range outs {
		e.attempted++
		if !outs[i].ok() {
			e.failed++
		}
	}
}

// checkAnswers checks about oracleChecks evenly spaced answers.
func (e *env) checkAnswers(ref *reference, reqs []request, outs []outcome) {
	stride := max(1, len(reqs)/oracleChecks)
	for i := 0; i < len(outs); i += stride {
		if !outs[i].ok() {
			continue
		}
		if msg := ref.check(reqs[i].q, *outs[i].resp); msg != "" {
			e.mismatch("%s", msg)
		}
	}
}

// load is the traffic on one service: the query stream and, on a dynamic
// graph, the edge stream beside it.
type load struct {
	e        *env
	s        *service
	ref      *reference
	ingest   bool
	accepted [][][2]uint32 // ingest batches the server accepted
	phase    uint64
}

// run sends queries at rate for dur, with the edge stream beside them on
// a dynamic graph.
func (l *load) run(rate float64, dur time.Duration, count bool) (queries, ingests []outcome) {
	l.phase++
	n := l.ref.g.NumVertices()
	qs := schedule(l.e.phaseRNG(2*l.phase), rate, dur, queryMix(n))
	streams := [][]request{qs}
	var is []request
	if l.ingest {
		is = schedule(l.e.phaseRNG(2*l.phase+1), ingestRate, dur, ingestMix(n))
		streams = append(streams, is)
	}
	outs := l.s.lg.run(context.Background(), streams...)
	outs = append(outs, nil) // no edge stream on serve
	if count {
		l.e.count(outs[0])
		l.e.count(outs[1])
	}
	l.account(qs, outs[0], is, outs[1])
	return outs[0], outs[1]
}

// saturate keeps outstanding queries in flight for dur and returns
// their outcomes, each at its completion time.
func (l *load) saturate(dur time.Duration) []outcome {
	l.phase++
	// Worker streams are numbered above every open-loop stream's.
	outs, qs, kept := l.s.lg.closedLoop(context.Background(), outstanding, dur,
		func(w int) *rand.Rand { return l.e.phaseRNG(l.phase<<32 | uint64(w)) }, queryMix(l.ref.g.NumVertices()))
	l.e.count(outs)
	l.account(qs, kept, nil, nil)
	return outs
}

// account checks query answers and keeps the edge batches the server
// accepted. It checks answers on the static graph only: on the dynamic
// graph they come from changing versions, and the final version is
// checked once the phase ends.
func (l *load) account(qs []request, qouts []outcome, is []request, iouts []outcome) {
	if !l.ingest {
		l.e.checkAnswers(l.ref, qs, qouts)
	}
	for i := range iouts {
		if iouts[i].ok() {
			l.accepted = append(l.accepted, is[i].q.edges)
		}
	}
}

// scrape reads the server's /metrics into a map keyed by series.
func (s *service) scrape() (map[string]float64, error) {
	body, err := s.lg.get(context.Background(), "/metrics")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// series names one metric of the served graph.
func series(name string, labels ...string) string {
	return name + `{graph="` + graphName + `"` + strings.Join(labels, "") + "}"
}

// runServe is the serve workload. Untraced, it measures a closed loop on
// the static graph. Traced, it drives the open loop on the static graph
// and then on a dynamic one with the edge stream beside it.
func runServe(e *env) error {
	ref := e.newReference()
	s, err := e.setupService()
	if err != nil {
		return err
	}
	defer s.close()
	l := &load{e: e, s: s, ref: ref}
	fmt.Fprintf(e.log, "graph: %d vertices, %d edges; HTTP/2 cleartext on %s\n",
		ref.g.NumVertices(), ref.g.NumEdges(), s.lg.base)
	l.run(rateR1, warmup, false)
	if !e.traced {
		return e.measureSaturation(l)
	}
	if err := e.tracedServing(l); err != nil {
		return err
	}
	return e.tracedIngest(ref)
}

// measureSaturation records the end-to-end metrics of serve from a
// closed loop over the whole run: throughput, and latency as the median
// over windows of each window's percentile. Latency at fixed open-loop
// rates moves with the shared host's speed by more than the benchmark's
// bounds, so those rates are measured in the traced run.
func (e *env) measureSaturation(l *load) error {
	outs := l.saturate(e.seconds)
	var within []outcome
	for i := range outs {
		if outs[i].at < e.seconds {
			within = append(within, outs[i])
		}
	}
	answered := 0
	for i := range within {
		if within[i].ok() {
			answered++
		}
	}
	e.set("sources_per_s", float64(answered)/e.seconds.Seconds(), fmt.Sprintf(
		"closed loop for %v, %d queries outstanding, one source each", e.seconds, outstanding))
	if err := e.setWindowPct("lat_p50_ms", within, 0.50); err != nil {
		return err
	}
	return e.setWindowPct("lat_p99_ms", within, 0.99)
}

func lagMS(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i := range outs {
		xs[i] = ms(outs[i].lag)
	}
	return xs
}

// tracedServing runs the open loop at r1 twice, the second time between
// two /metrics scrapes, whose difference attributes the phase to the
// server's layers, then at r2 for its latencies.
func (e *env) tracedServing(l *load) error {
	r1Dur := e.r1Dur()
	base, _ := l.run(rateR1, r1Dur, true)
	m0, err := l.s.scrape()
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	outs, _ := l.run(rateR1, r1Dur, true)
	rt1 := readRuntime()
	m1, err := l.s.scrape()
	if err != nil {
		return err
	}
	p50Base, _, _ := percentile(latencyMS(base), 0.5)
	p50, _, _ := percentile(latencyMS(outs), 0.5)
	e.set("obs.trace_overhead_frac", p50/p50Base-1, "r1 p50 with /metrics scrapes over without")

	var wait, run, httpT []float64
	for i := range outs {
		if o := &outs[i]; o.ok() {
			w := float64(o.resp.WaitMicros) / 1e3
			r := float64(o.resp.RunMicros) / 1e3
			wait = append(wait, w)
			run = append(run, r)
			httpT = append(httpT, ms(o.sendLat)-w-r)
		}
	}
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"server.queue_wait_p50_ms", wait, 0.5}, {"server.queue_wait_p99_ms", wait, 0.99},
		{"server.batch_run_p50_ms", run, 0.5}, {"server.batch_run_p99_ms", run, 0.99},
		{"server.http_p50_ms", httpT, 0.5}, {"loadgen.lag_p99_ms", lagMS(outs), 0.99},
	} {
		if err := e.setPct(p.name, p.xs, p.q); err != nil {
			return err
		}
	}
	if err := e.setWindowPct("loadgen.lat_p50_ms.r1", outs, 0.50); err != nil {
		return err
	}
	if err := e.setWindowPct("loadgen.lat_p99_ms.r1", outs, 0.99); err != nil {
		return err
	}
	delta := func(k string) float64 { return m1[k] - m0[k] }
	if b := delta(series("bfsd_batches_total")); b > 0 {
		e.set("server.batch_width_mean", delta(series("bfsd_sources_total"))/b, fmt.Sprintf("%.0f batches", b))
		e.set("server.batches_per_req", b/delta(series("bfsd_requests_total")))
	}
	e.set("server.rejected", delta(series("bfsd_rejected_total")))
	if h, m := delta("bfsd_engine_arena_hits_total"), delta("bfsd_engine_arena_misses_total"); h+m > 0 {
		e.set("engine.arena_hit_frac", h/(h+m))
	}
	e.set("engine.bytes", m1["bfsd_engine_arena_free_bytes"], "parked in the arena")
	e.set("runtime.alloc_mb_per_op", allocMiBPer(rt0, rt1, len(outs)), "per request")
	e.set("runtime.gc_cpu_frac", gcCPUFrac(rt0, rt1))

	r2, _ := l.run(rateR2, r1Dur*2/3, true)
	if err := e.setPct("loadgen.lat_p50_ms.r2", latencyMS(r2), 0.5); err != nil {
		return err
	}
	if err := e.setPct("loadgen.lat_p99_ms.r2", latencyMS(r2), 0.99); err != nil {
		return err
	}
	e.set("loadgen.inflight_max", float64(l.s.lg.inflightMax.Load()))
	return nil
}

// r1Dur is six tenths of the run, in whole windows.
func (e *env) r1Dur() time.Duration { return max(window, e.seconds*6/10/window*window) }

// tracedIngest serves the same graph as a dynamic graph (LoadDynamic with
// AutoCompact) and drives the open loop at r1 beside the edge stream,
// between two /metrics scrapes. It attributes the phase to the dynamic
// graph layer, then checks the final version.
func (e *env) tracedIngest(ref *reference) error {
	t0 := time.Now()
	s, err := startService(e, true)
	if err != nil {
		return err
	}
	defer s.close()
	fmt.Fprintf(e.log, "dynamic graph up in %.3f s\n", time.Since(t0).Seconds())
	l := &load{e: e, s: s, ref: ref, ingest: true, phase: 1 << 20}
	l.run(rateR1, warmup, false)
	m0, err := s.scrape()
	if err != nil {
		return err
	}
	outs, ingests := l.run(rateR1, e.r1Dur(), true)
	m1, err := s.scrape()
	if err != nil {
		return err
	}
	delta := func(k string) float64 { return m1[k] - m0[k] }
	for _, p := range []struct {
		name string
		xs   []outcome
		q    float64
	}{
		{"dyngraph.lat_p50_ms.r1", outs, 0.5}, {"dyngraph.lat_p99_ms.r1", outs, 0.99},
	} {
		if err := e.setWindowPct(p.name, p.xs, p.q); err != nil {
			return err
		}
	}
	if err := e.setPct("dyngraph.ingest_p50_ms", latencyMS(ingests), 0.5); err != nil {
		return err
	}
	if err := e.setPct("dyngraph.ingest_p99_ms", latencyMS(ingests), 0.99); err != nil {
		return err
	}
	var deltaMax int64
	var conflicts int
	for i := range ingests {
		if ingests[i].ok() {
			deltaMax = max(deltaMax, ingests[i].resp.DeltaArcs)
		}
		if ingests[i].status == http.StatusConflict {
			conflicts++
		}
	}
	if b := delta(series("bfsd_batches_total")); b > 0 {
		e.set("dyngraph.batch_width_mean", delta(series("bfsd_sources_total"))/b, fmt.Sprintf("%.0f batches", b))
	}
	e.set("dyngraph.versions", delta(series("bfsd_graph_version")))
	e.set("dyngraph.compactions", delta(series("bfsd_compactions_total")))
	e.set("dyngraph.compact_s", m1[series("bfsd_compaction_seconds", `,quantile="p50"`)], "median per compaction")
	e.set("dyngraph.delta_arcs_max", float64(deltaMax))
	e.set("dyngraph.rejected_409", float64(conflicts))
	e.checkFinalVersion(l)
	return nil
}

// checkFinalVersion checks /bfs answers at the final version of the
// dynamic graph against the reference plus every accepted edge.
func (e *env) checkFinalVersion(l *load) {
	l.ref.addEdges(l.accepted)
	n := l.ref.g.NumVertices()
	rng := e.phaseRNG(1 << 40)
	mix := queryMix(n)
	var reqs []request
	for len(reqs) < 64 {
		if r := mix(rng); r.q.kind == "bfs" {
			reqs = append(reqs, r)
		}
	}
	outs := l.s.lg.run(context.Background(), reqs)[0]
	e.count(outs)
	e.checkAnswers(l.ref, reqs, outs)
	fmt.Fprintf(e.log, "final version checked: %d answers against the base graph plus %d accepted edge batches\n",
		len(reqs), len(l.accepted))
}
