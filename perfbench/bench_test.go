package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	msbfs "repro"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestPercentileRule checks that a percentile is lowered until ten
// samples lie beyond it, and refused when no percentile has ten.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		q       float64
		want    float64
		wantQ   float64
		wantErr bool
	}{
		{n: 1000, q: 0.99, want: 990, wantQ: 0.99},    // exactly ten beyond
		{n: 500, q: 0.99, want: 490, wantQ: 0.98},     // lowered to p98
		{n: 100, q: 0.50, want: 50, wantQ: 0.50},      // median unaffected
		{n: 11, q: 0.99, want: 1, wantQ: 1.0 / 11},    // only the lowest sample qualifies
		{n: 10, q: 0.50, wantErr: true},               // none has ten beyond
		{n: 2000, q: 0.999, want: 1990, wantQ: 0.995}, // p99.9 needs 10000
	} {
		xs := seq(tc.n)
		rand := slices.Clone(xs)
		slices.Reverse(rand) // input order must not matter
		v, used, ok := percentile(rand, tc.q)
		if ok == tc.wantErr {
			t.Fatalf("n=%d q=%v: ok=%v", tc.n, tc.q, ok)
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if v != tc.want || used != tc.wantQ || beyond < tailMin {
			t.Errorf("n=%d q=%v: got %v at q=%v with %d beyond, want %v at q=%v",
				tc.n, tc.q, v, used, beyond, tc.want, tc.wantQ)
		}
	}
}

// TestFailuresMissTheLimit checks that failed requests enter the latency
// sample as +Inf, so that they count against every percentile.
func TestFailuresMissTheLimit(t *testing.T) {
	outs := make([]outcome, 100)
	for i := range outs {
		outs[i] = outcome{status: 200, latency: time.Millisecond}
	}
	for i := 0; i < 11; i++ {
		outs[i].status = 429
	}
	v, _, _ := percentile(latencyMS(outs), 0.50)
	if v != 1 {
		t.Errorf("p50 = %v, want 1 ms", v)
	}
	if v, _, _ := percentile(latencyMS(outs), 0.90); v != inf {
		t.Errorf("p90 with 11 failures of 100 = %v, want +Inf", v)
	}
}

// TestWindowPct checks that a phase's percentile is the median over its
// windows.
func TestWindowPct(t *testing.T) {
	e := testEnv()
	var outs []outcome
	for w, latMS := range []float64{1, 5, 3} {
		for i := 0; i < 100; i++ {
			outs = append(outs, outcome{
				at: time.Duration(w)*window + time.Duration(i)*time.Millisecond, status: 200,
				latency: time.Duration(latMS * float64(time.Millisecond)),
			})
		}
	}
	if err := e.setWindowPct("lat", outs, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := e.values["lat"]; got != 3 {
		t.Errorf("median of window medians = %v, want 3", got)
	}
	if err := e.setWindowPct("lat", outs[:5], 0.5); err == nil {
		t.Error("a window of 5 samples gave a percentile")
	}
}

func testEnv() *env {
	return &env{log: io.Discard, values: map[string]float64{}, samples: map[string]string{}}
}

// TestOracleCatchesCorruptAnswers checks that every query kind's correct
// answer passes the reference and a corrupted one is caught.
func TestOracleCatchesCorruptAnswers(t *testing.T) {
	g := msbfs.GenerateKronecker(8, 8, 3)
	ref := &reference{g: g, cache: map[int][]int32{}}
	src := g.TopKByDegree(1)[0]
	lv := g.SequentialBFS(src).Levels
	var visited int64
	var ecc int32
	var within2 int64
	for _, l := range lv {
		if l != msbfs.NoLevel {
			visited++
			ecc = max(ecc, l)
			if l <= 2 {
				within2++
			}
		}
	}
	yes, no := true, false
	far := slices.Index(lv, ecc)
	for _, tc := range []struct {
		q       query
		good    response
		corrupt func(*response)
	}{
		{query{kind: "bfs", source: src, targets: []int{far, src}},
			response{Visited: visited, Eccentricity: ecc, Distances: []int32{ecc, 0}},
			func(r *response) { r.Distances[0]-- }},
		{query{kind: "bfs", source: src, targets: []int{far}},
			response{Visited: visited, Eccentricity: ecc, Distances: []int32{ecc}},
			func(r *response) { r.Visited++ }},
		{query{kind: "closeness", source: src},
			response{Closeness: closenessOf(lv)},
			func(r *response) { r.Closeness *= 1 + 1e-6 }},
		{query{kind: "reachability", source: src, target: far},
			response{Reachable: &yes},
			func(r *response) { r.Reachable = &no }},
		{query{kind: "khop", source: src, hops: 2},
			response{Count: within2},
			func(r *response) { r.Count-- }},
	} {
		if msg := ref.check(tc.q, tc.good); msg != "" {
			t.Errorf("%s: correct answer rejected: %s", tc.q.kind, msg)
		}
		bad := tc.good
		bad.Distances = slices.Clone(tc.good.Distances)
		tc.corrupt(&bad)
		if msg := ref.check(tc.q, bad); msg == "" {
			t.Errorf("%s: corrupted answer %+v passed", tc.q.kind, bad)
		}
	}
}

// TestCheckersCountMismatches checks that a corrupted closeness value in
// a job is counted as a mismatch and a failure by both job checkers.
func TestCheckersCountMismatches(t *testing.T) {
	g := msbfs.GenerateKronecker(9, 8, 5)
	sources := g.RandomSources(64, 1)
	good := g.Closeness(sources, msbfs.Options{Workers: 2})

	e := testEnv()
	check := e.closenessChecker(g, sources)
	check(jobResult{values: good})
	check(jobResult{values: good})
	if e.mismatches != 0 || e.attempted != 128 {
		t.Fatalf("correct jobs: %d mismatches of %d", e.mismatches, e.attempted)
	}
	bad := slices.Clone(good)
	bad[0] += 1e-3  // a sampled position, so also caught by the sequential BFS
	bad[1] += 1e-15 // compared with the first job bit for bit
	check(jobResult{values: bad})
	if e.mismatches != 3 || e.failed != 3 {
		t.Errorf("corrupted job: %d mismatches, %d failed, want 3 and 3", e.mismatches, e.failed)
	}

	e = testEnv()
	exact := e.exactChecker(sources, good)
	exact(jobResult{values: good})
	exact(jobResult{values: bad})
	if e.mismatches != 2 {
		t.Errorf("exact checker: %d mismatches, want 2", e.mismatches)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root names the workloads and metrics this program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
