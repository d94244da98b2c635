// Fault-plan-driven codec fuzzing. This file is an external test package on
// purpose: faults imports comm, so importing faults from package comm's own
// tests would be an import cycle.
package comm_test

import (
	"reflect"
	"testing"

	"viracocha/internal/comm"
	"viracocha/internal/faults"
)

func corruptibleFrame() []byte {
	return comm.Encode(comm.Message{
		Kind:    "wdone",
		Command: "iso.dataman",
		ReqID:   77,
		Seq:     3,
		Final:   true,
		Params:  map[string]string{"worker": "w2", "rank": "1", "attempt": "0"},
		Payload: []byte("payload bytes that a link fault may corrupt"),
	})
}

// TestDecodeSurvivesMutatedFrames replays a spread of seeded fault-plan
// mutations over a valid frame: the decoder must never panic, and anything
// it accepts must round-trip.
func TestDecodeSurvivesMutatedFrames(t *testing.T) {
	base := corruptibleFrame()
	for seed := uint64(0); seed < 512; seed++ {
		data := append([]byte(nil), base...)
		faults.Mutate(seed, data, int(seed%9)+1)
		m, err := comm.Decode(data)
		if err != nil {
			continue
		}
		back, err := comm.Decode(comm.Encode(m))
		if err != nil {
			t.Fatalf("seed %d: accepted frame failed to re-decode: %v", seed, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("seed %d: accepted corrupted frame does not round-trip", seed)
		}
	}
}

func corruptibleBatch() []byte {
	return comm.EncodeBatch([]comm.Message{
		{
			Kind: "partial", Command: "vortex.streamed", ReqID: 12, Seq: 1,
			Params:  map[string]string{"worker": "w1", "rank": "1", "attempt": "0"},
			Payload: []byte("packet one of a batch"),
		},
		{
			Kind: "partial", Command: "vortex.streamed", ReqID: 12, Seq: 2,
			Params:  map[string]string{"worker": "w1", "rank": "1", "attempt": "0", "block": "5", "bseq": "1"},
			Payload: []byte("packet two, block-tagged"),
		},
	})
}

// TestDecodeBatchSurvivesMutatedFrames replays seeded fault-plan mutations
// over a valid batch (the WAL checkpoint / wmemo record encoding):
// DecodeBatch must never panic, and any batch it accepts must consist of
// messages that individually round-trip — corruption can cost the whole batch
// but can never smuggle a corrupt message through the per-message CRC.
func TestDecodeBatchSurvivesMutatedFrames(t *testing.T) {
	base := corruptibleBatch()
	for seed := uint64(0); seed < 512; seed++ {
		data := append([]byte(nil), base...)
		faults.Mutate(seed, data, int(seed%9)+1)
		msgs, err := comm.DecodeBatch(data)
		if err != nil {
			continue
		}
		for i, m := range msgs {
			back, err := comm.Decode(comm.Encode(m))
			if err != nil {
				t.Fatalf("seed %d: accepted sub-message %d failed to re-decode: %v", seed, i, err)
			}
			if !reflect.DeepEqual(m, back) {
				t.Fatalf("seed %d: accepted sub-message %d does not round-trip", seed, i)
			}
		}
	}
}

// FuzzDecodeBatchMutated lets the fuzzer drive mutations over a batch
// directly.
func FuzzDecodeBatchMutated(f *testing.F) {
	f.Add(uint64(1), 1)
	f.Add(uint64(42), 4)
	f.Add(uint64(1<<40), 16)
	f.Fuzz(func(t *testing.T, seed uint64, n int) {
		if n < 0 {
			n = -n
		}
		n %= 64
		data := corruptibleBatch()
		faults.Mutate(seed, data, n)
		msgs, err := comm.DecodeBatch(data)
		if err != nil {
			return
		}
		for _, m := range msgs {
			if back, err := comm.Decode(comm.Encode(m)); err != nil || !reflect.DeepEqual(m, back) {
				t.Fatalf("accepted mutated sub-message does not round-trip (err %v)", err)
			}
		}
	})
}

// FuzzDecodeMutated lets the fuzzer drive the mutation parameters directly.
func FuzzDecodeMutated(f *testing.F) {
	f.Add(uint64(1), 1)
	f.Add(uint64(42), 4)
	f.Add(uint64(1<<40), 16)
	f.Fuzz(func(t *testing.T, seed uint64, n int) {
		if n < 0 {
			n = -n
		}
		n %= 64
		data := corruptibleFrame()
		faults.Mutate(seed, data, n)
		m, err := comm.Decode(data)
		if err != nil {
			return
		}
		if back, err := comm.Decode(comm.Encode(m)); err != nil || !reflect.DeepEqual(m, back) {
			t.Fatalf("accepted mutated frame does not round-trip (err %v)", err)
		}
	})
}
