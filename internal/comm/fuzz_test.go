package comm

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"
)

// FuzzDecode exercises the message decoder on the input as given and with its
// checksum made good, so that mutations reach the parser: no panics, accepted
// inputs round-trip, and an accepted frame whose keys are sorted and unique —
// the form Encode writes — re-encodes byte for byte.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(sampleMessage()))
	f.Add(Encode(Message{}))
	f.Add([]byte{})
	f.Add(Encode(partialMessage(16, 1)))
	f.Add(rawFrame("rank", "07", "sseq", "3"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, resealed(data))
	})
}

// resealed is data with its trailing checksum made good, so that a mutation
// reaches the parser instead of failing the checksum.
func resealed(data []byte) []byte {
	if len(data) < 8 {
		return data
	}
	body := slices.Clip(data[:len(data)-4])
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	m, err := Decode(data)
	if err != nil {
		return
	}
	if !reflect.DeepEqual(m, mustDecode(t, Encode(m))) {
		t.Fatal("accepted message does not round-trip")
	}
	if keys := frameKeys(data); slices.IsSorted(keys) && len(slices.Compact(keys)) == len(keys) &&
		!bytes.Equal(Encode(m), data) {
		t.Fatalf("accepted frame with sorted, unique keys %q re-encodes differently", keys)
	}
}

// frameKeys lists the parameter keys of a well-formed frame in wire order.
func frameKeys(data []byte) []string {
	c := cursor{data: data[:len(data)-4]}
	c.take(4)
	c.field()
	c.field()
	c.take(8 + 4 + 1)
	keys := make([]string, c.u32())
	for i := range keys {
		keys[i] = string(c.field())
		c.field()
	}
	return keys
}

func mustDecode(t *testing.T, data []byte) Message {
	t.Helper()
	m, err := Decode(data)
	if err != nil {
		t.Fatalf("re-decode failed: %v", err)
	}
	return m
}
