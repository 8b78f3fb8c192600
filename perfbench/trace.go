package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	msbfs "repro"
)

// kernelTrace sums the per-iteration flight records an msbfs.Tracer kept,
// read back through its public Chrome-trace export.
type kernelTrace struct {
	traversals, iters, bottomUpIters int
	topDownS, bottomUpS              float64
	scanned, tasks, steals           int64
	mergeWords                       int64
	workerTasks                      []int64 // summed per worker
}

func readKernelTrace(tr *msbfs.Tracer) (kernelTrace, error) {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return kernelTrace{}, fmt.Errorf("exporting trace: %w", err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat  string         `json:"cat"`
			Dur  float64        `json:"dur"` // microseconds
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return kernelTrace{}, fmt.Errorf("decoding trace: %w", err)
	}
	var kt kernelTrace
	num := func(args map[string]any, key string) int64 {
		f, _ := args[key].(float64)
		return int64(f)
	}
	for _, ev := range doc.TraceEvents {
		switch ev.Cat {
		case "traversal":
			kt.traversals++
		case "iteration":
			kt.iters++
			if ev.Args["direction"] == "bottom-up" {
				kt.bottomUpIters++
				kt.bottomUpS += ev.Dur / 1e6
			} else {
				kt.topDownS += ev.Dur / 1e6
			}
			kt.scanned += num(ev.Args, "scanned")
			kt.tasks += num(ev.Args, "tasks")
			kt.steals += num(ev.Args, "steals")
			kt.mergeWords += num(ev.Args, "merge_words")
			perWorker, _ := ev.Args["tasks_per_worker"].([]any)
			for w, t := range perWorker {
				for len(kt.workerTasks) <= w {
					kt.workerTasks = append(kt.workerTasks, 0)
				}
				f, _ := t.(float64)
				kt.workerTasks[w] += int64(f)
			}
		}
	}
	return kt, nil
}

// taskSkew is the busiest worker's task count over the mean.
func (kt kernelTrace) taskSkew() float64 {
	if len(kt.workerTasks) == 0 {
		return 0
	}
	var sum, max int64
	for _, t := range kt.workerTasks {
		sum += t
		if t > max {
			max = t
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(kt.workerTasks)))
}

// setKernel records the core, bitset and sched metrics of a kernel trace.
func (e *env) setKernel(kt kernelTrace, usefulEdges int64) {
	e.set("core.iters", float64(kt.iters), fmt.Sprintf("%d traversals", kt.traversals))
	if kt.iters > 0 {
		e.set("core.bottomup_iter_frac", float64(kt.bottomUpIters)/float64(kt.iters))
		e.set("bitset.merge_words_per_iter", float64(kt.mergeWords)/float64(kt.iters))
	}
	e.set("core.topdown_s", kt.topDownS)
	e.set("core.bottomup_s", kt.bottomUpS)
	e.set("core.scanned_edges", float64(kt.scanned))
	if kt.scanned > 0 {
		e.set("core.scan_yield", float64(usefulEdges)/float64(kt.scanned))
	}
	e.set("bitset.merge_words", float64(kt.mergeWords))
	e.set("sched.tasks", float64(kt.tasks))
	if kt.tasks > 0 {
		e.set("sched.steal_frac", float64(kt.steals)/float64(kt.tasks))
	}
	e.set("sched.task_skew", kt.taskSkew())
}
