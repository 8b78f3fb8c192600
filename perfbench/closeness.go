package main

import (
	"fmt"
	"math"
	"time"

	msbfs "repro"
)

const (
	closenessScale   = 18
	closenessSources = 2048
	edgeFactor       = 16
	// defaultWidth is the batch width the library picks for 449 or more
	// sources (8 words of 64).
	defaultWidth = 512
	// oracleSamples is how many closeness values per job are checked
	// against a sequential BFS.
	oracleSamples = 8
)

// jobResult is one closeness job over all sources. A job issues one call
// per default-width batch, so its batches are the ones a single call over
// all sources runs, and each source's latency is the time from the job's
// start until its batch has finished.
type jobResult struct {
	values []float64
	latMS  []float64
	dur    time.Duration
}

// batchFunc computes the closeness of one batch of sources.
type batchFunc func(batch []int) ([]float64, error)

func runJob(sources []int, run batchFunc) (jobResult, error) {
	res := jobResult{values: make([]float64, 0, len(sources)), latMS: make([]float64, 0, len(sources))}
	start := time.Now()
	for off := 0; off < len(sources); off += defaultWidth {
		batch := sources[off:min(off+defaultWidth, len(sources))]
		vals, err := run(batch)
		if err != nil {
			return jobResult{}, err
		}
		done := ms(time.Since(start))
		res.values = append(res.values, vals...)
		for range batch {
			res.latMS = append(res.latMS, done)
		}
	}
	res.dur = time.Since(start)
	return res, nil
}

// measureJobs runs jobs until the run's time is spent (at least one) and
// checks each, then records sources_per_s as the median job rate and the
// latency percentiles as the median over jobs of each job's percentile.
func (e *env) measureJobs(sources []int, run batchFunc, check func(jobResult)) error {
	t0 := time.Now()
	var rates []float64
	var lat [][]float64
	for {
		j, err := runJob(sources, run)
		if err != nil {
			return err
		}
		check(j)
		rates = append(rates, float64(len(sources))/j.dur.Seconds())
		lat = append(lat, j.latMS)
		if time.Since(t0)+j.dur > e.seconds {
			break
		}
	}
	e.set("sources_per_s", median(rates), fmt.Sprintf("median of %d jobs of %d sources: %.4g", len(rates), len(sources), rates))
	if err := e.setMedianPct("lat_p50_ms", lat, 0.50, "jobs"); err != nil {
		return err
	}
	return e.setMedianPct("lat_p99_ms", lat, 0.99, "jobs")
}

// closenessOf is the Wasserman-Faust closeness of a BFS level array, the
// formula msbfs.Graph.Closeness documents.
func closenessOf(levels []int32) float64 {
	var sum, reached int64
	for _, l := range levels {
		if l != msbfs.NoLevel {
			sum += int64(l)
			reached++
		}
	}
	if reached <= 1 || sum == 0 {
		return 0
	}
	r := float64(reached - 1)
	return r / float64(sum) * r / float64(len(levels)-1)
}

// closenessChecker returns a check that compares a job's values at
// oracleSamples positions against a sequential BFS on g, and every value
// against the first job's, since closeness sums are exact integers.
func (e *env) closenessChecker(g *msbfs.Graph, sources []int) func(jobResult) {
	ref := map[int]float64{}
	for i := 0; i < oracleSamples; i++ {
		idx := i * len(sources) / oracleSamples
		ref[idx] = closenessOf(g.SequentialBFS(sources[idx]).Levels)
	}
	var first []float64
	return func(j jobResult) {
		e.attempted += int64(len(j.values))
		if len(j.values) != len(sources) {
			e.mismatch("job returned %d values for %d sources", len(j.values), len(sources))
			return
		}
		for idx, want := range ref {
			if got := j.values[idx]; !closeEnough(got, want) {
				e.mismatch("closeness of source %d: got %v, sequential BFS gives %v", sources[idx], got, want)
			}
		}
		if first == nil {
			first = j.values
			return
		}
		for i, v := range j.values {
			if v != first[i] {
				e.mismatch("closeness of source %d changed between jobs: %v then %v", sources[i], first[i], v)
			}
		}
	}
}

func closeEnough(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// runCloseness is the closeness workload: Graph.Closeness over
// closenessSources random sources of a striped-relabeled Kronecker graph.
func runCloseness(e *env) error {
	var g *msbfs.Graph
	var genS, relS []float64
	setup, err := repeatSetup(func() error {
		t0 := time.Now()
		raw := msbfs.GenerateKronecker(closenessScale, edgeFactor, e.seed)
		t1 := time.Now()
		g, _ = raw.Relabel(msbfs.LabelStriped, e.nproc, 512, e.seed)
		genS = append(genS, t1.Sub(t0).Seconds())
		relS = append(relS, time.Since(t1).Seconds())
		return nil
	}, nil)
	if err != nil {
		return err
	}
	sources := g.RandomSources(closenessSources, e.seed+1)
	check := e.closenessChecker(g, sources)
	closeness := func(opt msbfs.Options) batchFunc {
		return func(batch []int) ([]float64, error) { return g.Closeness(batch, opt), nil }
	}
	opt := msbfs.Options{Workers: e.nproc}
	fmt.Fprintf(e.log, "graph: %d vertices, %d edges; %d sources\n", g.NumVertices(), g.NumEdges(), len(sources))

	if !e.traced {
		e.set("setup_s", setup, fmt.Sprintf("median of %d", setupReps))
		return e.measureJobs(sources, closeness(opt), check)
	}

	e.set("gen.kron_s", median(genS))
	e.set("label.relabel_s", median(relS))
	before := readRuntime()
	base, err := runJob(sources, closeness(opt))
	if err != nil {
		return err
	}
	after := readRuntime()
	check(base)
	e.set("runtime.alloc_mb_per_op", allocMiBPer(before, after, len(sources)), "per source")
	e.set("runtime.gc_cpu_frac", gcCPUFrac(before, after))

	tr := msbfs.NewTracer()
	eng := msbfs.NewEngine(opt)
	defer eng.Close()
	traced, err := runJob(sources, closeness(msbfs.Options{Workers: e.nproc, Tracer: tr, Engine: eng}))
	if err != nil {
		return err
	}
	check(traced)
	e.set("obs.trace_overhead_frac", traced.dur.Seconds()/base.dur.Seconds()-1)
	kt, err := readKernelTrace(tr)
	if err != nil {
		return err
	}
	e.setKernel(kt, g.NewEdgeCounter().EdgesForAll(sources))
	st := eng.Stats()
	if st.Hits+st.Misses > 0 {
		e.set("engine.arena_hit_frac", float64(st.Hits)/float64(st.Hits+st.Misses))
	}
	e.set("engine.bytes", float64(st.FreeBytes), "parked in the arena after the job")

	bare, err := runJob(sources, func(batch []int) ([]float64, error) {
		g.MultiBFS(batch, opt)
		return nil, nil
	})
	if err != nil {
		return err
	}
	e.set("core.traverse_s", bare.dur.Seconds())
	e.set("core.visit_s", base.dur.Seconds()-bare.dur.Seconds())

	w1, err := runJob(sources, closeness(msbfs.Options{Workers: 1}))
	if err != nil {
		return err
	}
	check(w1)
	w1Rate := float64(len(sources)) / w1.dur.Seconds()
	e.set("sched.w1_sources_per_s", w1Rate)
	e.set("sched.scaling_eff", float64(len(sources))/base.dur.Seconds()/(float64(e.nproc)*w1Rate))
	return nil
}
