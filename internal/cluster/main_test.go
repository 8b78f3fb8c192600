package cluster

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// TestMain fails the package when goroutines outlive its tests: every
// shard, coordinator connection and barrier loop a test starts must be
// joined by the time the test returns. The count is polled, since
// goroutines that have been told to exit take a moment to do so.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	// The local oracle runs borrow the library's shared default engine,
	// whose pooled workers live for the process by design; close it so
	// that only goroutines the tests own are counted.
	core.DefaultEngine().Close()
	// A -fuzz run keeps the fuzzing engine's signal goroutine alive, so
	// only plain runs (the seed-corpus replay included) are checked.
	if fuzz := flag.Lookup("test.fuzz"); code == 0 && (fuzz == nil || fuzz.Value.String() == "") {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before\n%s\n", n, base, buf)
			code = 1
		}
	}
	os.Exit(code)
}
