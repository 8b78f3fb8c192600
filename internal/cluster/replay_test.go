package cluster

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	msbfs "repro"
)

// barrierLoopRunning reports whether any goroutine is inside the
// coordinator's barrier loop.
func barrierLoopRunning() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Contains(string(buf), "(*barrier).run")
}

// TestClusterShardKillDuringReplay blocks the visitor on the seed level
// until the barrier loop has filled the replay queue, kills a shard, then
// lets the replay go on. RunBatch must fail with ErrShardDown well before
// the shards' step deadline, no visit may come after it returns, and the
// loop goroutine must be gone by then.
func TestClusterShardKillDuringReplay(t *testing.T) {
	const stepTimeout = 10 * time.Second
	ip, err := StartInproc(context.Background(), 4,
		ShardOptions{Workers: 2, StepTimeout: stepTimeout}, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	rg, err := ip.Coord.LoadGraph(context.Background(), "g", pathGraph(1<<12), 2)
	if err != nil {
		t.Fatal(err)
	}

	rpcs := &ip.Coord.Metrics().RPCs
	before := rpcs.Load()
	gate := make(chan struct{})
	var returned atomic.Bool
	var late atomic.Int64
	blocked := false
	visit := func(_, _, _, _ int) {
		if returned.Load() {
			late.Add(1)
		}
		if !blocked {
			blocked = true
			<-gate
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := rg.RunBatch(context.Background(), []int{0}, msbfs.Options{}, visit)
		returned.Store(true)
		done <- err
	}()

	// With the visitor stuck on level 0, the loop queues levels 1 to
	// replayQueue, runs level replayQueue+1 and waits for queue space:
	// 4 starts plus 4 step RPCs per level, and then no more.
	full := before + 4 + 4*int64(replayQueue+1)
	for deadline := time.Now().Add(10 * time.Second); rpcs.Load() < full; {
		if time.Now().After(deadline) {
			t.Fatalf("%d RPCs after 10s, want %d with the replay queue full", rpcs.Load()-before, full-before)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := rpcs.Load(); got != full {
		t.Fatalf("%d RPCs with the visitor blocked, want the loop parked at %d", got-before, full-before)
	}

	ip.KillShard(2)
	killed := time.Now()
	close(gate)
	select {
	case err := <-done:
		if !errors.Is(err, ErrShardDown) {
			t.Fatalf("RunBatch after shard kill: err=%v, want ErrShardDown", err)
		}
		if since := time.Since(killed); since >= stepTimeout/2 {
			t.Errorf("RunBatch took %v after the kill, want well under the %v step deadline", since, stepTimeout)
		}
	case <-time.After(stepTimeout):
		t.Fatal("RunBatch did not return before the step deadline")
	}
	if n := late.Load(); n != 0 {
		t.Errorf("%d visits after RunBatch returned", n)
	}
	if barrierLoopRunning() {
		t.Error("barrier loop still running after RunBatch returned")
	}
}

// TestClusterVisitorPanicReachesCaller requires a visitor's panic to
// surface on the goroutine that called RunBatch, with the barrier loop
// joined, and the cluster to keep serving afterwards.
func TestClusterVisitorPanicReachesCaller(t *testing.T) {
	ip := startCluster(t, 2, CoordinatorOptions{})
	g := msbfs.GenerateKronecker(9, 8, 5)
	rg, err := ip.Coord.LoadGraph(context.Background(), "g", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sources := g.RandomSources(8, 3)
	type sentinel struct{}
	func() {
		defer func() {
			if r := recover(); r != (sentinel{}) {
				t.Fatalf("recovered %v, want the visitor's panic", r)
			}
		}()
		calls := 0
		rg.RunBatch(context.Background(), sources, msbfs.Options{}, func(_, _, _, depth int) {
			if calls++; depth == 2 {
				panic(sentinel{})
			}
		})
		t.Fatalf("RunBatch returned after %d visits without panicking", calls)
	}()
	if barrierLoopRunning() {
		t.Error("barrier loop still running after the panic")
	}
	want := g.MultiBFS(sources, msbfs.Options{Workers: 2})
	res, err := rg.RunBatch(context.Background(), sources, msbfs.Options{}, func(_, _, _, _ int) {})
	if err != nil {
		t.Fatalf("query after the panic: %v", err)
	}
	if res.VisitedStates != want.VisitedStates {
		t.Errorf("query after the panic: VisitedStates=%d, want %d", res.VisitedStates, want.VisitedStates)
	}
}

// TestShardEndAbortsWaitingStep ends a query while one of its shards
// waits at the level barrier for a peer that was never stepped. The end
// must abort that step at once rather than release the query's state
// under it or wait out the step deadline.
func TestShardEndAbortsWaitingStep(t *testing.T) {
	const stepTimeout = 10 * time.Second
	ip, err := StartInproc(context.Background(), 2,
		ShardOptions{Workers: 2, StepTimeout: stepTimeout}, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if _, err := ip.Coord.LoadGraph(context.Background(), "g", pathGraph(256), 2); err != nil {
		t.Fatal(err)
	}
	c := ip.Coord
	ctx := context.Background()
	qid := c.nextID.Add(1)
	if err := c.fanOut(func(s int) error {
		_, err := c.call(ctx, s, msgStart, encodeStart(qid, "g", []int{0}, 0, false))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	q, err := ip.Shards[0].getQuery(qid)
	if err != nil {
		t.Fatal(err)
	}
	stepErr := make(chan error, 1)
	go func() {
		_, err := c.call(ctx, 0, msgStep, encodeQueryRef(qid, 1))
		stepErr <- err
	}()
	// The step holds stepMu from its start to its end.
	for q.stepMu.TryLock() {
		q.stepMu.Unlock()
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	for s := range c.conns {
		if _, err := c.call(ctx, s, msgEnd, encodeQueryRef(qid)); err != nil {
			t.Fatalf("end on shard %d: %v", s, err)
		}
	}
	select {
	case err := <-stepErr:
		if err == nil {
			t.Error("step of an ended query succeeded")
		}
	case <-time.After(stepTimeout / 2):
		t.Fatal("step still waiting at the barrier after its query ended")
	}
	if since := time.Since(start); since >= stepTimeout/2 {
		t.Errorf("end took %v, want well under the %v step deadline", since, stepTimeout)
	}
}
