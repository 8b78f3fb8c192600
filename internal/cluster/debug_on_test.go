//go:build bfsdebug

package cluster

import (
	"strings"
	"testing"
)

// TestDebugRejectsStateAtTwoLevels feeds the coordinator's replay one
// (slot, vertex) state at levels 0 and 2; the bfsdebug build must reject
// the second report instead of visiting the state twice.
func TestDebugRejectsStateAtTwoLevels(t *testing.T) {
	const n, k = 10, 3
	part := MakePartition(n, 1)
	state := make([]uint64, n)
	state[4] = 1 << 2
	visits := 0
	rp := newLevelReplay(part, k, 0, nil, func(_, _, _, _ int) { visits++ })
	for depth := 0; depth < 2; depth++ {
		lv := state
		if depth == 1 {
			lv = make([]uint64, n)
		}
		if err := rp.replay(depth, levelPayloads(lv, part, 1)); err != nil {
			t.Fatalf("level %d rejected: %v", depth, err)
		}
	}
	err := rp.replay(2, levelPayloads(state, part, 1))
	if err == nil || !strings.Contains(err.Error(), "bfsdebug") {
		t.Fatalf("duplicate state: err=%v after %d visits, want a bfsdebug error", err, visits)
	}
	if visits != 1 {
		t.Errorf("%d visits before the duplicate was rejected, want 1", visits)
	}
}
