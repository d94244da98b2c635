package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"viracocha/internal/dataset"
)

// FuzzDecodeBlock exercises the block parser behind the checksum: every
// input of eight bytes or more has its trailing CRC-32C re-sealed before the
// decode, so mutations reach the header and the fields instead of stopping
// at the checksum. The decoder must never panic, any input it accepts must
// re-encode to the same bytes, and the same input with one bit of its
// checksum flipped must fail with ErrCorrupt.
func FuzzDecodeBlock(f *testing.F) {
	f.Add(EncodeBlock(dataset.Tiny().Generate(0, 0)))
	f.Add([]byte{})
	f.Add([]byte{0x4b, 0x42, 0x52, 0x56})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 {
			data = sealed(data[:len(data)-4])
			bad := bytes.Clone(data)
			bad[len(bad)-1] ^= 0x80
			if _, err := DecodeBlock(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("a flipped checksum bit: err = %v, want ErrCorrupt", err)
			}
		}
		b, err := DecodeBlock(data)
		if err != nil {
			return
		}
		round := EncodeBlock(b)
		if !bytes.Equal(round, data) {
			t.Fatalf("accepted input does not re-encode stably")
		}
	})
}

// sealed is body followed by its CRC-32C trailer: a frame whose checksum
// holds whatever the body says.
func sealed(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, blockCRCTable))
}
