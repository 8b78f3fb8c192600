package main

import (
	"context"
	"fmt"
	"time"

	msbfs "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
)

const (
	clusterScale  = 16
	clusterShards = 2
)

// shardCluster is a loopback shard cluster with the workload's graph
// loaded on it.
type shardCluster struct {
	ip *cluster.Inproc
	rg *cluster.RemoteGraph
}

func startCluster(ctx context.Context, g *msbfs.Graph, workers int, tracer *obs.Tracer) (*shardCluster, float64, error) {
	ip, err := cluster.StartInproc(ctx, clusterShards, cluster.ShardOptions{Workers: workers},
		cluster.CoordinatorOptions{Tracer: tracer})
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	rg, err := ip.Coord.LoadGraph(ctx, graphName, g, workers)
	if err != nil {
		ip.Close()
		return nil, 0, err
	}
	return &shardCluster{ip: ip, rg: rg}, time.Since(t0).Seconds(), nil
}

// closeness returns a batchFunc computing closeness from the cluster's
// RunBatch visitor, which runs on one goroutine.
func (c *shardCluster) closeness(ctx context.Context) batchFunc {
	n := c.rg.NumVertices()
	return func(batch []int) ([]float64, error) {
		sum := make([]int64, len(batch))
		reached := make([]int64, len(batch))
		_, err := c.rg.RunBatch(ctx, batch, msbfs.Options{}, func(_, i, _, depth int) {
			sum[i] += int64(depth)
			reached[i]++
		})
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(batch))
		for i := range out {
			if reached[i] > 1 && sum[i] > 0 {
				r := float64(reached[i] - 1)
				out[i] = r / float64(sum[i]) * r / float64(n-1)
			}
		}
		return out, nil
	}
}

// exactChecker compares every value of a job with want bit for bit.
func (e *env) exactChecker(sources []int, want []float64) func(jobResult) {
	return func(j jobResult) {
		e.attempted += int64(len(j.values))
		if len(j.values) != len(want) {
			e.mismatch("job returned %d values for %d sources", len(j.values), len(want))
			return
		}
		for i, v := range j.values {
			if v != want[i] {
				e.mismatch("cluster closeness of source %d: %v, local Closeness gives %v", sources[i], v, want[i])
			}
		}
	}
}

// runCluster is the cluster workload: the closeness computation as
// RunBatch visitors over a loopback cluster of clusterShards shards.
func runCluster(e *env) error {
	ctx := context.Background()
	workers := max(1, e.nproc/clusterShards)
	var g *msbfs.Graph
	var c *shardCluster
	var genS, relS, loadS []float64
	setup, err := repeatSetup(func() error {
		t0 := time.Now()
		raw := msbfs.GenerateKronecker(clusterScale, edgeFactor, e.seed)
		t1 := time.Now()
		g, _ = raw.Relabel(msbfs.LabelStriped, e.nproc, 512, e.seed)
		genS = append(genS, t1.Sub(t0).Seconds())
		relS = append(relS, time.Since(t1).Seconds())
		var load float64
		var err error
		c, load, err = startCluster(ctx, g, workers, nil)
		loadS = append(loadS, load)
		return err
	}, func() { c.ip.Close() })
	if err != nil {
		return err
	}
	defer c.ip.Close()

	sources := g.RandomSources(closenessSources, e.seed+1)
	check := e.exactChecker(sources, g.Closeness(sources, msbfs.Options{Workers: e.nproc}))
	fmt.Fprintf(e.log, "graph: %d vertices, %d edges on %d shards of %d workers; %d sources\n",
		g.NumVertices(), g.NumEdges(), clusterShards, workers, len(sources))
	if !e.traced {
		e.set("setup_s", setup, fmt.Sprintf("median of %d", setupReps))
		return e.measureJobs(sources, c.closeness(ctx), check)
	}

	e.set("gen.kron_s", median(genS))
	e.set("label.relabel_s", median(relS))
	e.set("cluster.load_graph_s", median(loadS), fmt.Sprintf("median of %d", setupReps))
	met := c.ip.Coord.Metrics()
	bytes0, raw0 := met.FrontierBytes.Load(), met.FrontierRawBytes.Load()
	rt0 := readRuntime()
	base, err := runJob(sources, c.closeness(ctx))
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	check(base)
	sent, raw := met.FrontierBytes.Load()-bytes0, met.FrontierRawBytes.Load()-raw0
	e.set("cluster.runbatch_s", base.dur.Seconds(), "one job")
	e.set("cluster.exchange_bytes", float64(sent), "one job")
	if raw > 0 {
		e.set("cluster.compression_ratio", float64(sent)/float64(raw), "sent over raw bitset bytes")
	}
	e.set("cluster.rpc_p50_ms", float64(met.RPCSeconds.P50())/1e6, fmt.Sprintf("n=%d RPCs", met.RPCs.Load()))
	e.set("runtime.alloc_mb_per_op", allocMiBPer(rt0, rt1, len(sources)), "per source")
	e.set("runtime.gc_cpu_frac", gcCPUFrac(rt0, rt1))

	tracer := obs.NewTracer()
	tc, _, err := startCluster(ctx, g, workers, tracer)
	if err != nil {
		return err
	}
	defer tc.ip.Close()
	traced, err := runJob(sources, tc.closeness(ctx))
	if err != nil {
		return err
	}
	check(traced)
	e.set("obs.trace_overhead_frac", traced.dur.Seconds()/base.dur.Seconds()-1)
	e.setShardSteps(tracer.Snapshot())
	return nil
}

// setShardSteps sums the shards' step phases over a traced job. The
// coordinator's own time is each traversal's span minus, per level, the
// longest shard RPC window.
func (e *env) setShardSteps(tr obs.Trace) {
	var scan, encode, send, wait, decode, apply, coord time.Duration
	steps := 0
	for _, tv := range tr.Traversals {
		window := map[int]time.Duration{}
		for _, st := range tv.ShardSteps {
			steps++
			scan += st.Scan
			encode += st.Encode
			send += st.Send
			wait += st.Wait
			decode += st.Decode
			apply += st.Apply
			window[st.Level] = max(window[st.Level], st.ReplyRecv.Sub(st.ReqSent))
		}
		coord += tv.End.Sub(tv.Start)
		for _, w := range window {
			coord -= w
		}
	}
	detail := fmt.Sprintf("%d shard steps in %d traversals", steps, len(tr.Traversals))
	e.set("cluster.scan_s", scan.Seconds(), detail)
	e.set("cluster.encode_s", encode.Seconds(), detail)
	e.set("cluster.send_s", send.Seconds(), detail)
	e.set("cluster.wait_s", wait.Seconds(), detail)
	e.set("cluster.decode_s", decode.Seconds(), detail)
	e.set("cluster.apply_s", apply.Seconds(), detail)
	e.set("cluster.coord_s", coord.Seconds(), detail)
}
