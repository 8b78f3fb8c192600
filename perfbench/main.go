// Command perfbench is the repository's benchmark. It generates a seeded
// workload, drives the library, the HTTP query server or the shard
// cluster through their public entry points, checks the timed answers
// against a reference, and prints every metric by name with its unit and
// sample count. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics. Run it from the repository
// root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve --seed 7 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// endToEnd and perLayer name the metrics of an untraced and of a traced
// run, with their units; BENCHMARK.json lists the same names. Every
// workload prints every name. A per-layer metric of a layer the workload
// does not run prints 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"ok_frac", "ratio"},
	{"sources_per_s", "sources/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
}

var perLayer = []metricDef{
	{"gen.kron_s", "s"},
	{"label.relabel_s", "s"},
	{"server.load_s", "s"},
	{"cluster.load_graph_s", "s"},
	{"core.traverse_s", "s"},
	{"core.visit_s", "s"},
	{"core.iters", "count"},
	{"core.bottomup_iter_frac", "ratio"},
	{"core.topdown_s", "s"},
	{"core.bottomup_s", "s"},
	{"core.scanned_edges", "count"},
	{"core.scan_yield", "ratio"},
	{"bitset.merge_words", "count"},
	{"bitset.merge_words_per_iter", "count"},
	{"sched.tasks", "count"},
	{"sched.steal_frac", "ratio"},
	{"sched.task_skew", "ratio"},
	{"sched.w1_sources_per_s", "sources/s"},
	{"sched.scaling_eff", "ratio"},
	{"engine.arena_hit_frac", "ratio"},
	{"engine.bytes", "bytes"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"server.batch_width_mean", "sources"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_p99_ms", "ms"},
	{"server.batch_run_p50_ms", "ms"},
	{"server.batch_run_p99_ms", "ms"},
	{"server.http_p50_ms", "ms"},
	{"server.batches_per_req", "ratio"},
	{"server.rejected", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.inflight_max", "count"},
	{"loadgen.lat_p50_ms.r1", "ms"},
	{"loadgen.lat_p99_ms.r1", "ms"},
	{"loadgen.lat_p50_ms.r2", "ms"},
	{"loadgen.lat_p99_ms.r2", "ms"},
	{"dyngraph.lat_p50_ms.r1", "ms"},
	{"dyngraph.lat_p99_ms.r1", "ms"},
	{"dyngraph.batch_width_mean", "sources"},
	{"dyngraph.versions", "count"},
	{"dyngraph.compactions", "count"},
	{"dyngraph.compact_s", "s"},
	{"dyngraph.delta_arcs_max", "count"},
	{"dyngraph.rejected_409", "count"},
	{"dyngraph.ingest_p50_ms", "ms"},
	{"dyngraph.ingest_p99_ms", "ms"},
	{"cluster.runbatch_s", "s"},
	{"cluster.exchange_bytes", "bytes"},
	{"cluster.compression_ratio", "ratio"},
	{"cluster.rpc_p50_ms", "ms"},
	{"cluster.scan_s", "s"},
	{"cluster.encode_s", "s"},
	{"cluster.send_s", "s"},
	{"cluster.wait_s", "s"},
	{"cluster.decode_s", "s"},
	{"cluster.apply_s", "s"},
	{"cluster.coord_s", "s"},
	{"obs.trace_overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) error{
	"closeness": runCloseness,
	"serve":     runServe,
	"cluster":   runCluster,
}

// env is one run: its parameters and what it has measured so far.
type env struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	nproc   int
	log     io.Writer

	values  map[string]float64
	samples map[string]string // sample count and quantile behind a value

	attempted, failed, mismatches int64
}

// set records a metric; detail, when given, names the samples behind it.
func (e *env) set(name string, v float64, detail ...string) {
	e.values[name] = v
	if len(detail) > 0 {
		e.samples[name] = detail[0]
	}
}

// setPct records the q-quantile of xs under the tail-sample rule,
// with its sample count and the quantile used.
func (e *env) setPct(name string, xs []float64, q float64) error {
	v, used, ok := percentile(xs, q)
	if !ok {
		return fmt.Errorf("%s: %d samples cannot support a percentile", name, len(xs))
	}
	e.set(name, v, fmt.Sprintf("n=%d q=%.4f", len(xs), used))
	return nil
}

// setWindowPct records the median over the phase's windows of each
// window's q-quantile, so that one stall of a shared host does not decide
// the figure.
func (e *env) setWindowPct(name string, outs []outcome, q float64) error {
	lat := latencyMS(outs)
	var per [][]float64
	for i := range outs {
		w := int(outs[i].at / window)
		for len(per) <= w {
			per = append(per, nil)
		}
		per[w] = append(per[w], lat[i])
	}
	return e.setMedianPct(name, per, q, fmt.Sprintf("windows of %v", window))
}

// setMedianPct records the median over groups of each group's q-quantile
// under the tail-sample rule, with the group count, the smallest group's
// size, the quantile used there and every group's value.
func (e *env) setMedianPct(name string, groups [][]float64, q float64, what string) error {
	var vals []float64
	least := math.MaxInt
	for _, xs := range groups {
		v, _, ok := percentile(xs, q)
		if !ok {
			return fmt.Errorf("%s: a group of %d samples cannot support a percentile", name, len(xs))
		}
		vals = append(vals, v)
		least = min(least, len(xs))
	}
	if len(vals) == 0 {
		return fmt.Errorf("%s: no samples", name)
	}
	_, used, _ := percentile(make([]float64, least), q)
	e.set(name, median(vals), fmt.Sprintf("median of %d %s, n>=%d each, q=%.4f: %.4g",
		len(vals), what, least, used, vals))
	return nil
}

// mismatch records an oracle disagreement; the run then reports
// correct=false and exits non-zero.
func (e *env) mismatch(format string, args ...any) {
	e.mismatches++
	e.failed++
	if e.mismatches <= 10 {
		fmt.Fprintf(e.log, "MISMATCH: "+format+"\n", args...)
	}
}

func main() {
	workload := flag.String("workload", "", "closeness, serve or cluster")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload closeness|serve|cluster --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		nproc:   runtime.NumCPU(),
		log:     os.Stdout,
		values:  map[string]float64{},
		samples: map[string]string{},
	}
	fmt.Fprintf(e.log, "workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d\n",
		*workload, e.seed, *seconds, *trace, e.nproc, runtime.GOMAXPROCS(0))
	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := e.report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if e.mismatches > 0 {
		os.Exit(3)
	}
}

// report prints one line per metric and the JSON result line. The
// end-to-end metrics of an untraced run must all have been measured.
func (e *env) report(w io.Writer) error {
	defs := endToEnd
	if e.traced {
		defs = perLayer
	} else {
		e.set("peak_rss_mb", peakRSSMiB())
		if e.attempted > 0 {
			e.set("ok_frac", 1-float64(e.failed)/float64(e.attempted),
				fmt.Sprintf("n=%d", e.attempted))
		}
	}
	if e.attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jsonMetric{}
	for _, d := range defs {
		v, measured := e.values[d.name]
		if !measured && !e.traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		line := fmt.Sprintf("metric %-30s %14.6g %s", d.name, v, d.unit)
		if s, ok := e.samples[d.name]; ok {
			line += " (" + s + ")"
		} else if !measured {
			line += " (layer not on this workload's path)"
		}
		fmt.Fprintln(w, line)
		out[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(w, "error_frac %.6g (failed %d of %d attempted, %d oracle mismatches)\n",
		float64(e.failed)/float64(e.attempted), e.failed, e.attempted, e.mismatches)
	return json.NewEncoder(w).Encode(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{e.mismatches == 0, e.attempted, e.failed, out})
}

// repeatSetup runs build setupReps times and returns the median duration;
// the last build's state is the one the run measures. Before each build
// after the first it calls discard, untimed, to release the previous one.
func repeatSetup(build func() error, discard func()) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && discard != nil {
			discard()
		}
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	runtime.GC()
	return median(ds), nil
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3
