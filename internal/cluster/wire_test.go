package cluster

import (
	"bytes"
	"math/bits"
	"reflect"
	"testing"
)

// validResult builds a well-formed msgResult reply for a k-wide batch over
// n vertices that ran steps barrier rounds: each level's states come from
// raw (via buildWords), masked to the k real slots and to states no
// earlier level reported. It returns the reply and the states per level.
func validResult(raw []byte, n, k, steps int) ([]byte, [][]uint64) {
	words := (k + 63) / 64
	lastMask := ^uint64(0) >> (uint(-k) & 63)
	seen := make([]uint64, n*words)
	var log []byte
	var ends []int
	states := make([][]uint64, steps+1)
	for depth := range states {
		lv := buildWords(append([]byte{byte(depth)}, raw...), n, words)
		for i := range lv {
			if i%words == words-1 {
				lv[i] &= lastMask
			}
			lv[i] &^= seen[i]
			seen[i] |= lv[i]
		}
		states[depth] = lv
		log = encodeDelta(log, lv, n, words)
		ends = append(ends, len(log))
	}
	return encodeResultLevels(k, n, log, ends), states
}

func TestReplayLevelsRejectsMalformed(t *testing.T) {
	const n, k, steps = 100, 70, 2
	part := MakePartition(n, 1)
	good, _ := validResult([]byte{0x11, 0x80}, n, k, steps)
	if err := replayLevels([][]byte{good}, part, k, steps, 0, nil, nil); err != nil {
		t.Fatalf("well-formed reply rejected: %v", err)
	}
	// Slot 70 is the first bit beyond the batch: word 1, bit 6.
	words := make([]uint64, n*2)
	words[2*5+1] = 1 << 6
	var log []byte
	var ends []int
	for depth := 0; depth <= steps; depth++ {
		if depth == 1 {
			log = encodeDelta(log, words, n, 2)
		} else {
			log = encodeDelta(log, make([]uint64, n*2), n, 2)
		}
		ends = append(ends, len(log))
	}
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      good[:len(good)-1],
		"trailing":       append(append([]byte{}, good...), 0),
		"wrong k":        encodeResultLevels(k+1, n, nil, nil),
		"wrong rlen":     encodeResultLevels(k, n-1, nil, nil),
		"too few levels": encodeResultLevels(k, n, log, ends[:steps]),
		"too many levels": encodeResultLevels(k, n, append(append([]byte{}, log...), log[:ends[0]]...),
			append(append([]int{}, ends...), len(log)+ends[0])),
		"slot beyond k":  encodeResultLevels(k, n, log, ends),
		"huge count":     {70, 100, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"bad codec byte": encodeResultLevels(k, n, []byte{0x7f, 0x7f, 0x7f}, []int{1, 2, 3}),
	}
	for name, payload := range cases {
		if err := replayLevels([][]byte{payload}, part, k, steps, 0, nil, nil); err == nil {
			t.Errorf("%s: replay accepted a malformed reply", name)
		}
	}
}

// FuzzResultLevels fuzzes the msgResult reply and the coordinator's
// validation of it. A reply built from raw must replay to exactly its
// states, each at its level; raw itself as a hostile reply must be
// rejected or replay only in-range (slot, vertex, depth) triples, without
// panicking or sizing allocations from its contents.
func FuzzResultLevels(f *testing.F) {
	f.Add([]byte{}, 64, 64, 0)
	f.Add([]byte{0x01, 0x80}, 100, 70, 2)
	f.Add([]byte{0xff}, 33, 511, 3)
	good, _ := validResult([]byte{0x42}, 20, 5, 1)
	f.Add(good, 20, 5, 1)
	f.Fuzz(func(t *testing.T, raw []byte, n, k, steps int) {
		n = ((n % 257) + 257) % 257
		k = ((k%maxBatchSources)+maxBatchSources)%maxBatchSources + 1
		steps = ((steps % 6) + 6) % 6
		words := (k + 63) / 64
		part := MakePartition(n, 1)
		levels := make([][]int32, k)
		for i := range levels {
			levels[i] = make([]int32, n)
		}

		reply, states := validResult(raw, n, k, steps)
		want := 0
		for _, lv := range states {
			for _, w := range lv {
				want += bits.OnesCount64(w)
			}
		}
		got := 0
		err := replayLevels([][]byte{reply}, part, k, steps, 0, levels, func(_, slot, v, depth int) {
			if states[depth][v*words+slot/64]>>(slot%64)&1 == 0 {
				t.Fatalf("visit(%d,%d,%d) is not a state of that level", slot, v, depth)
			}
			if levels[slot][v] != int32(depth) {
				t.Fatalf("levels[%d][%d]=%d during visit at depth %d", slot, v, levels[slot][v], depth)
			}
			got++
		})
		if err != nil {
			t.Fatalf("well-formed reply rejected: %v", err)
		}
		if got != want {
			t.Fatalf("replayed %d visits, reply holds %d states", got, want)
		}

		_ = replayLevels([][]byte{raw}, part, k, steps, 0, levels, func(w, slot, v, depth int) {
			if w != 0 || slot < 0 || slot >= k || v < 0 || v >= n || depth < 0 || depth > steps {
				t.Fatalf("hostile reply replayed visit(%d,%d,%d,%d)", w, slot, v, depth)
			}
		})
	})
}

func FuzzDecodeStart(f *testing.F) {
	f.Add(encodeStart(1, "g", []int{0, 5, 1 << 20}, 0))
	f.Add(encodeStart(7, "demo", []int{3}, 99))
	f.Add([]byte{1, 1, 'g', 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeStart(payload)
		if err != nil {
			return
		}
		if len(m.sources) > len(payload) {
			t.Fatalf("%d sources from a %d-byte payload", len(m.sources), len(payload))
		}
		again, err := decodeStart(encodeStart(m.qid, m.name, m.sources, m.traceID))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded start decodes to %+v, %v; want %+v", again, err, m)
		}
	})
}

func FuzzDecodeStepDone(f *testing.F) {
	f.Add(encodeStepDone(stepDone{nextStates: 7, sentBytes: 100, rawBytes: 300}))
	f.Add(encodeStepDone(stepDone{nextStates: 1, trace: &stepTrace{1, 2, 3, 4, 5, 6}}))
	f.Add([]byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, payload []byte) {
		d, err := decodeStepDone(payload)
		if err != nil {
			return
		}
		again, err := decodeStepDone(encodeStepDone(d))
		if err != nil || !reflect.DeepEqual(again, d) {
			t.Fatalf("re-encoded step reply decodes to %+v, %v; want %+v", again, err, d)
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
