package comm

import (
	"bytes"
	"reflect"
	"testing"
)

func batchMessages() []Message {
	return []Message{
		{
			Kind: "partial", Command: "vortex.streamed", ReqID: 9, Seq: 1,
			Worker: Some("w0"), Rank: Some(0), Attempt: Some(0),
			Payload: []byte("first packet"),
		},
		{
			Kind: "partial", Command: "vortex.streamed", ReqID: 9, Seq: 2,
			Worker: Some("w0"), Rank: Some(0), Attempt: Some(0), Block: Some(3), BSeq: Some(0),
			Payload: []byte{},
		},
		{
			Kind: "partial", Command: "vortex.streamed", ReqID: 9, Seq: 3,
			Worker: Some("w0"), Rank: Some(0), Attempt: Some(0),
			Payload: bytes.Repeat([]byte{0xAB, 0x00, 0x7F}, 513),
		},
	}
}

// TestBatchRoundTrip: a batch (WAL checkpoint, wmemo record) must yield
// exactly the messages that went in, and each sub-message's bytes must equal
// its individual encoding.
func TestBatchRoundTrip(t *testing.T) {
	msgs := batchMessages()
	payload := EncodeBatch(msgs)
	back, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(back), len(msgs))
	}
	for i := range msgs {
		if !reflect.DeepEqual(normalize(msgs[i]), normalize(back[i])) {
			t.Fatalf("message %d does not round-trip:\n in: %+v\nout: %+v", i, msgs[i], back[i])
		}
	}
	// Byte-level identity of the embedded encodings.
	off := 0
	for i := range msgs {
		enc := Encode(msgs[i])
		sub := payload[off+4 : off+4+len(enc)]
		if !bytes.Equal(enc, sub) {
			t.Fatalf("message %d: embedded bytes differ from individual Encode", i)
		}
		off += 4 + len(enc)
	}
}

// normalize maps an encode/decode-equivalent message to a canonical form:
// the codec does not distinguish nil from empty payloads or param maps.
func normalize(m Message) Message {
	if len(m.Payload) == 0 {
		m.Payload = nil
	}
	if len(m.Params) == 0 {
		m.Params = nil
	}
	return m
}

func TestBatchEmpty(t *testing.T) {
	if p := EncodeBatch(nil); len(p) != 0 {
		t.Fatalf("empty batch encoded to %d bytes", len(p))
	}
	msgs, err := DecodeBatch(nil)
	if err != nil || len(msgs) != 0 {
		t.Fatalf("empty payload: %d messages, err %v", len(msgs), err)
	}
}

// TestBatchRejectsDamage: truncation anywhere, a lying length prefix, or a
// flipped payload byte must all fail loudly — never a partial decode.
func TestBatchRejectsDamage(t *testing.T) {
	payload := EncodeBatch(batchMessages())
	for cut := 1; cut < len(payload); cut += 37 {
		if _, err := DecodeBatch(payload[:cut]); err == nil {
			// A cut can only succeed if it lands exactly on an entry
			// boundary; verify it decoded a strict prefix in that case.
			msgs, _ := DecodeBatch(payload[:cut])
			if len(msgs) >= 3 {
				t.Fatalf("truncation at %d decoded the full batch", cut)
			}
		}
	}
	huge := append([]byte(nil), payload...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := DecodeBatch(huge); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
	flipped := append([]byte(nil), payload...)
	flipped[len(flipped)/2] ^= 0x10
	if msgs, err := DecodeBatch(flipped); err == nil {
		// The flip must have hit a length prefix in a way that still framed
		// CRC-valid messages — effectively impossible; treat success with
		// all three originals as a checksum failure.
		if len(msgs) == 3 {
			t.Fatal("corrupted batch decoded without error")
		}
	}
}
