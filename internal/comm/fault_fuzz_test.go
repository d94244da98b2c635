// Fault-plan-driven codec fuzzing. This file is an external test package on
// purpose: faults imports comm, so importing faults from package comm's own
// tests would be an import cycle.
package comm_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
		Worker:  comm.Some("w2"),
		Rank:    comm.Some(1),
		Attempt: comm.Some(0),
		Payload: []byte("payload bytes that a link fault may corrupt"),
	})
}

// TestDecodeSurvivesMutatedFrames replays a spread of seeded fault-plan
// mutations over a valid frame. As mutated, a changed frame fails its
// checksum; with the checksum made good, the mutation reaches the parser,
// which must never panic, and anything it accepts must round-trip.
func TestDecodeSurvivesMutatedFrames(t *testing.T) {
	base := corruptibleFrame()
	accepted := 0
	for seed := uint64(0); seed < 512; seed++ {
		data := append([]byte(nil), base...)
		faults.Mutate(seed, data, int(seed%9)+1)
		if _, err := comm.Decode(data); err == nil && !bytes.Equal(data, base) {
			t.Fatalf("seed %d: a mutated frame passed its checksum", seed)
		}
		m, err := comm.Decode(comm.Resealed(data))
		if err != nil {
			continue
		}
		accepted++
		back, err := comm.Decode(comm.Encode(m))
		if err != nil {
			t.Fatalf("seed %d: accepted frame failed to re-decode: %v", seed, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("seed %d: accepted corrupted frame does not round-trip", seed)
		}
	}
	t.Logf("Decode accepted %d of 512 resealed mutated frames", accepted)
	if accepted == 0 {
		t.Fatal("Decode accepted no resealed mutated frame: the round-trip check never ran")
	}
}

func corruptibleBatch() []byte {
	return comm.EncodeBatch([]comm.Message{
		{
			Kind: "partial", Command: "vortex.streamed", ReqID: 12, Seq: 1,
			Worker: comm.Some("w1"), Rank: comm.Some(1), Attempt: comm.Some(0),
			Payload: []byte("packet one of a batch"),
		},
		{
			Kind: "partial", Command: "vortex.streamed", ReqID: 12, Seq: 2,
			Worker: comm.Some("w1"), Rank: comm.Some(1), Attempt: comm.Some(0), Block: comm.Some(5), BSeq: comm.Some(1),
			Payload: []byte("packet two, block-tagged"),
		},
	})
}

// resealedBatch is data with every sub-record's checksum made good: each
// length prefix that still fits is followed and the record it frames is
// resealed, so a mutation reaches DecodeBatch's parser instead of failing the
// first checksum it meets. Bytes past a length prefix that no longer fits
// are kept as they are.
func resealedBatch(data []byte) []byte {
	out := make([]byte, 0, len(data))
	for len(data) >= 4 {
		n := binary.LittleEndian.Uint32(data)
		if uint64(n) > uint64(len(data)-4) {
			break
		}
		out = append(out, data[:4]...)
		out = append(out, comm.Resealed(data[4:4+n])...)
		data = data[4+n:]
	}
	return append(out, data...)
}

// checkBatch fails unless every message of an accepted batch round-trips.
func checkBatch(t *testing.T, what string, msgs []comm.Message) {
	t.Helper()
	for i, m := range msgs {
		back, err := comm.Decode(comm.Encode(m))
		if err != nil {
			t.Fatalf("%s: accepted sub-message %d failed to re-decode: %v", what, i, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("%s: accepted sub-message %d does not round-trip", what, i)
		}
	}
}

// TestDecodeBatchSurvivesMutatedFrames replays seeded fault-plan mutations
// over a valid batch (the WAL checkpoint encoding). As mutated, a changed
// batch fails a sub-record's checksum; with every sub-record's checksum made
// good, the mutation reaches the parser, which must never panic, and any
// batch it accepts must consist of messages that individually round-trip.
func TestDecodeBatchSurvivesMutatedFrames(t *testing.T) {
	base := corruptibleBatch()
	accepted := 0
	for seed := uint64(0); seed < 512; seed++ {
		data := append([]byte(nil), base...)
		faults.Mutate(seed, data, int(seed%9)+1)
		if _, err := comm.DecodeBatch(data); err == nil && !bytes.Equal(data, base) {
			t.Fatalf("seed %d: a mutated batch passed its checksums", seed)
		}
		msgs, err := comm.DecodeBatch(resealedBatch(data))
		if err != nil {
			continue
		}
		accepted++
		checkBatch(t, fmt.Sprintf("seed %d", seed), msgs)
	}
	t.Logf("DecodeBatch accepted %d of 512 resealed mutated batches", accepted)
	if accepted == 0 {
		t.Fatal("DecodeBatch accepted no resealed mutated batch: the round-trip check never ran")
	}
}

// FuzzDecodeBatchMutated lets the fuzzer drive mutations over a batch
// directly, as mutated and with every sub-record's checksum made good.
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
		for _, batch := range [][]byte{data, resealedBatch(data)} {
			if msgs, err := comm.DecodeBatch(batch); err == nil {
				checkBatch(t, "mutated batch", msgs)
			}
		}
	})
}

// FuzzDecodeMutated lets the fuzzer drive the mutation parameters directly,
// over the frame as mutated and with its checksum made good.
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
		for _, frame := range [][]byte{data, comm.Resealed(data)} {
			m, err := comm.Decode(frame)
			if err != nil {
				continue
			}
			if back, err := comm.Decode(comm.Encode(m)); err != nil || !reflect.DeepEqual(m, back) {
				t.Fatalf("accepted mutated frame does not round-trip (err %v)", err)
			}
		}
	})
}
