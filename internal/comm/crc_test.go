package comm

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

// randomBytes returns n random bytes, n drawn up to max with empty and short
// strings over-represented.
func randomBytes(rng *rand.Rand, max int) []byte {
	n := rng.Intn(max + 1)
	if rng.Intn(4) == 0 {
		n = rng.Intn(3)
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestCombineChecksumIsChecksumOfConcatenation: over random splits of random
// strings, empty parts included, combining the parts' CRC-32Cs gives the
// CRC-32C of the whole.
func TestCombineChecksumIsChecksumOfConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		whole := randomBytes(rng, 1<<(1+rng.Intn(17)))
		cut := 0
		if len(whole) > 0 {
			cut = rng.Intn(len(whole) + 1)
		}
		a, b := whole[:cut], whole[cut:]
		want := crc32.Checksum(whole, castagnoli)
		if got := CombineChecksum(crc32.Checksum(a, castagnoli), crc32.Checksum(b, castagnoli), len(b)); got != want {
			t.Fatalf("split %d|%d: combined %#x, want %#x", len(a), len(b), got, want)
		}
	}
	// Lengths whose shift walks far up the x^(2^k) table.
	for _, n := range []int{1 << 20, 1<<28 + 12345} {
		zeros := make([]byte, n)
		a := []byte("head")
		want := crc32.Update(crc32.Checksum(a, castagnoli), castagnoli, zeros)
		if got := CombineChecksum(crc32.Checksum(a, castagnoli), crc32.Checksum(zeros, castagnoli), n); got != want {
			t.Fatalf("%d zero bytes: combined %#x, want %#x", n, got, want)
		}
	}
}

// TestFrameResidue: a frame ends in its own CRC-32C, so the CRC-32C of the
// whole frame is one constant whatever the message.
func TestFrameResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		m := Message{Kind: "partial", Command: "iso.viewer", ReqID: rng.Uint64(), Seq: rng.Intn(100),
			Final: rng.Intn(2) == 0, Rank: Some(rng.Intn(8)),
			Payload: randomBytes(rng, 4096)}
		if got := crc32.Checksum(Encode(m), castagnoli); got != frameResidue {
			t.Fatalf("frame CRC-32C %#x, want the residue %#x", got, uint32(frameResidue))
		}
	}
}

// TestSealedPayloadFramesAlike: a sealed message frames to the same bytes as
// the unsealed one, whatever its other fields, and SumAfter is the checksum
// of its prefix and the whole frame.
func TestSealedPayloadFramesAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		m := sampleMessage()
		m.Payload = randomBytes(rng, 1<<16)
		sealed := m
		sealed.SealPayload()
		m.SSeq, sealed.SSeq = Some(i), Some(i) // as the bridge sets it on its copy
		plain, got := NewFrame(m), NewFrame(sealed)
		if !bytes.Equal(got.concat(), plain.concat()) || !bytes.Equal(got.concat(), Encode(m)) {
			t.Fatalf("a sealed %d-byte payload frames differently", len(m.Payload))
		}
		prefix := randomBytes(rng, 200)
		if got, want := plain.SumAfter(prefix), Checksum(prefix, plain.Head, plain.Payload, plain.Sum); got != want {
			t.Fatalf("SumAfter = %#x, want %#x", got, want)
		}
	}
}
