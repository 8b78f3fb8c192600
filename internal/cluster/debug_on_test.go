//go:build bfsdebug

package cluster

import (
	"strings"
	"testing"
)

// TestDebugRejectsStateAtTwoLevels feeds the coordinator a reply that
// reports one (slot, vertex) state at levels 0 and 2; the bfsdebug build
// must reject it instead of visiting the state twice.
func TestDebugRejectsStateAtTwoLevels(t *testing.T) {
	const n, k = 10, 3
	state := make([]uint64, n)
	state[4] = 1 << 2
	var log []byte
	var ends []int
	for depth := 0; depth <= 2; depth++ {
		lv := make([]uint64, n)
		if depth != 1 {
			lv = state
		}
		log = encodeDelta(log, lv, n, 1)
		ends = append(ends, len(log))
	}
	visits := 0
	err := replayLevels([][]byte{encodeResultLevels(k, n, log, ends)}, MakePartition(n, 1), k, 2, 0, nil,
		func(_, _, _, _ int) { visits++ })
	if err == nil || !strings.Contains(err.Error(), "bfsdebug") {
		t.Fatalf("duplicate state: err=%v after %d visits, want a bfsdebug error", err, visits)
	}
}
