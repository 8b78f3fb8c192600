package cluster

import (
	"bytes"
	"fmt"
	"math/bits"
	"reflect"
	"testing"
)

// validLevel builds one level's states for a k-wide batch over n
// vertices from raw (via buildWords), masked to the k real slots.
func validLevel(raw []byte, n, k int) []uint64 {
	words := (k + 63) / 64
	lastMask := ^uint64(0) >> (uint(-k) & 63)
	states := buildWords(raw, n, words)
	for i := words - 1; i < len(states); i += words {
		states[i] &= lastMask
	}
	return states
}

// levelPayloads encodes an n x words slab of one level's states as the
// shards of part report it: one delta-codec payload per shard, in shard
// order.
func levelPayloads(states []uint64, part Partition, words int) [][]byte {
	out := make([][]byte, part.NumShards())
	for s := range out {
		lo, hi := part.Range(s)
		out[s] = encodeDelta(nil, states[lo*words:hi*words], hi-lo, words)
	}
	return out
}

// withPayload returns a copy of payloads with shard s's payload replaced.
func withPayload(payloads [][]byte, s int, p []byte) [][]byte {
	out := append([][]byte{}, payloads...)
	out[s] = p
	return out
}

func TestReplayLevelsRejectsMalformed(t *testing.T) {
	const n, k = 100, 70
	part := MakePartition(n, 2)
	good := levelPayloads(validLevel([]byte{0x11, 0x80}, n, k), part, 2)
	if err := newLevelReplay(part, k, 0, nil, nil).replay(0, good); err != nil {
		t.Fatalf("well-formed level rejected: %v", err)
	}
	// Slot 70 is the first bit beyond the batch: word 1, bit 6.
	beyond := make([]uint64, n*2)
	beyond[2*5+1] = 1 << 6
	// A state one row past shard 1's range.
	lo, hi := part.Range(1)
	past := make([]uint64, (hi-lo+1)*2)
	past[(hi-lo)*2] = 1
	cases := map[string][][]byte{
		"no shards":       nil,
		"too few shards":  good[:1],
		"too many shards": append(append([][]byte{}, good...), good[1]),
		"empty payload":   withPayload(good, 0, []byte{}),
		"truncated":       withPayload(good, 1, good[1][:len(good[1])-1]),
		"trailing":        withPayload(good, 0, append(append([]byte{}, good[0]...), 0)),
		"wrong rlen":      withPayload(good, 1, encodeDelta(nil, past, hi-lo+1, 2)),
		"slot beyond k":   levelPayloads(beyond, part, 2),
		"bad codec byte":  withPayload(good, 0, []byte{0x7f}),
		"huge count":      withPayload(good, 0, []byte{codecSparse, 0xff, 0xff, 0xff, 0xff, 0x0f}),
	}
	for name, payloads := range cases {
		if err := newLevelReplay(part, k, 0, nil, nil).replay(1, payloads); err == nil {
			t.Errorf("%s: replay accepted a malformed level", name)
		}
	}
}

// FuzzReplayLevel fuzzes the coordinator's validation of one level as
// the shards report it, one payload per shard. A level built from raw
// must replay to exactly its states; the same level with the wrong shard
// count, a bit at a slot >= k, or any shard's payload truncated or
// followed by a trailing byte must be rejected; raw itself, split across
// the shards as hostile payloads, must be rejected or replay only
// in-range (slot, vertex, depth) triples, without panicking or sizing
// allocations from its contents.
func FuzzReplayLevel(f *testing.F) {
	f.Add([]byte{}, 64, 64, 1)
	f.Add([]byte{0x01, 0x80}, 100, 70, 2)
	f.Add([]byte{0xff}, 33, 511, 3)
	f.Add([]byte{codecSparse, 1, 5, 1, 0x2a, 0, 0, 0, 0, 0, 0, 0}, 190, 5, 4)
	f.Fuzz(func(t *testing.T, raw []byte, n, k, shards int) {
		const depth = 3
		n = ((n % 257) + 257) % 257
		k = ((k%maxBatchSources)+maxBatchSources)%maxBatchSources + 1
		shards = ((shards%4)+4)%4 + 1
		words := (k + 63) / 64
		part := MakePartition(n, shards)
		levels := make([][]int32, k)
		for i := range levels {
			levels[i] = make([]int32, n)
		}

		states := validLevel(raw, n, k)
		good := levelPayloads(states, part, words)
		want := 0
		for _, w := range states {
			want += bits.OnesCount64(w)
		}
		got := 0
		err := newLevelReplay(part, k, 0, levels, func(_, slot, v, d int) {
			if d != depth || states[v*words+slot/64]>>(slot%64)&1 == 0 {
				t.Fatalf("visit(%d,%d,%d) is not a state of the level", slot, v, d)
			}
			if levels[slot][v] != depth {
				t.Fatalf("levels[%d][%d]=%d during visit at depth %d", slot, v, levels[slot][v], depth)
			}
			got++
		}).replay(depth, good)
		if err != nil {
			t.Fatalf("well-formed level rejected: %v", err)
		}
		if got != want {
			t.Fatalf("replayed %d visits, level holds %d states", got, want)
		}

		reject := func(what string, payloads [][]byte) {
			t.Helper()
			if err := newLevelReplay(part, k, 0, nil, nil).replay(depth, payloads); err == nil {
				t.Fatalf("replay accepted %s", what)
			}
		}
		reject("one payload too few", good[:shards-1])
		reject("one payload too many", append(append([][]byte{}, good...), good[0]))
		for s, p := range good {
			reject(fmt.Sprintf("shard %d truncated", s), withPayload(good, s, p[:len(p)-1]))
			reject(fmt.Sprintf("shard %d with a trailing byte", s), withPayload(good, s, append(append([]byte{}, p...), 0)))
		}
		if k%64 != 0 && n > 0 {
			beyond := append([]uint64{}, states...)
			beyond[(len(raw)%n)*words+words-1] |= 1 << (k % 64)
			reject("a slot beyond k", levelPayloads(beyond, part, words))
		}

		hostile := make([][]byte, shards)
		for s := range hostile {
			hostile[s] = raw[s*len(raw)/shards : (s+1)*len(raw)/shards]
		}
		_ = newLevelReplay(part, k, 0, levels, func(w, slot, v, d int) {
			if w != 0 || slot < 0 || slot >= k || v < 0 || v >= n || d != depth {
				t.Fatalf("hostile level replayed visit(%d,%d,%d,%d)", w, slot, v, d)
			}
		}).replay(depth, hostile)
	})
}

func FuzzDecodeStart(f *testing.F) {
	f.Add(encodeStart(1, "g", []int{0, 5, 1 << 20}, 0, false))
	f.Add(encodeStart(7, "demo", []int{3}, 99, false))
	f.Add(encodeStart(8, "demo", []int{3, 4}, 0, true))
	f.Add(encodeStart(9, "demo", []int{3, 4}, 99, true))
	f.Add([]byte{1, 1, 'g', 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeStart(payload)
		if err != nil {
			return
		}
		if len(m.sources) > len(payload) {
			t.Fatalf("%d sources from a %d-byte payload", len(m.sources), len(payload))
		}
		again, err := decodeStart(encodeStart(m.qid, m.name, m.sources, m.traceID, m.levels))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded start decodes to %+v, %v; want %+v", again, err, m)
		}
	})
}

// FuzzDecodeStepDone decodes each input both as a level-less reply and
// as one carrying the level section; whatever decodes must re-encode to
// a reply that decodes the same way.
func FuzzDecodeStepDone(f *testing.F) {
	f.Add(encodeStepDone(stepDone{nextStates: 7, sentBytes: 100, rawBytes: 300}))
	f.Add(encodeStepDone(stepDone{nextStates: 1, trace: &stepTrace{1, 2, 3, 4, 5, 6}}))
	f.Add([]byte{1, 2, 3, 4})
	f.Add(encodeStepDone(stepDone{nextStates: 2, sentBytes: 9, rawBytes: 64, level: []byte{codecSparse, 0}}))
	f.Add(encodeStepDone(stepDone{nextStates: 2, level: []byte{codecDense, 0xff, 0, 0, 0, 0, 0, 0, 0},
		trace: &stepTrace{1, 2, 3, 4, 5, 6}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, withLevel := range []bool{false, true} {
			d, err := decodeStepDone(payload, withLevel)
			if err != nil {
				continue
			}
			if (d.level != nil) != withLevel {
				t.Fatalf("withLevel=%v decoded level %x", withLevel, d.level)
			}
			again, err := decodeStepDone(encodeStepDone(d), withLevel)
			if err != nil || !reflect.DeepEqual(again, d) {
				t.Fatalf("re-encoded step reply decodes to %+v, %v; want %+v", again, err, d)
			}
		}
	})
}

func FuzzDecodeDelta32(f *testing.F) {
	f.Add(encodeDelta32(&deltaMsg{fromShard: 1, level: 3, delta: []byte{codecSparse, 0}}))
	f.Add(encodeDelta32(&deltaMsg{fromShard: 0, level: 1}))
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeDelta32(payload)
		if err != nil {
			return
		}
		again, err := decodeDelta32(encodeDelta32(m))
		if err != nil || again.fromShard != m.fromShard || again.level != m.level || !bytes.Equal(again.delta, m.delta) {
			t.Fatalf("re-encoded delta decodes to %+v, %v; want %+v", again, err, m)
		}
	})
}

func FuzzDecodeLoad(f *testing.F) {
	f.Add(encodeLoad(&loadMsg{name: "g", shardID: 1, numShards: 2, n: 4, workers: 2,
		peers: []string{"a:1", "b:2"}, offsets: []int64{0, 1, 3}, adjacency: []uint32{1, 0, 3}}))
	f.Add(encodeLoad(&loadMsg{name: "e", numShards: 1, peers: []string{""}, offsets: []int64{0}}))
	f.Add([]byte{1, 'g', 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeLoad(payload)
		if err != nil {
			return
		}
		if len(m.peers)+len(m.offsets)+len(m.adjacency) > len(payload) {
			t.Fatalf("%d peers, %d offsets and %d neighbors from a %d-byte payload",
				len(m.peers), len(m.offsets), len(m.adjacency), len(payload))
		}
		again, err := decodeLoad(encodeLoad(m))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded load decodes to %+v, %v; want %+v", again, err, m)
		}
	})
}
