package comm

import (
	"encoding/binary"
	"fmt"
)

// EncodeBatch packs the messages into one batch payload — the encoding of a
// WAL checkpoint: each sub-message's full wire encoding (magic, header,
// trailing CRC32-C) prefixed with its 32-bit little-endian length. Every
// sub-message's bytes are exactly its individual Encode output.
func EncodeBatch(msgs []Message) []byte {
	total := 0
	for i := range msgs {
		total += 4 + int(msgs[i].WireSize())
	}
	buf := make([]byte, 0, total)
	for i := range msgs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(msgs[i].WireSize()))
		buf = appendEncoded(buf, msgs[i])
	}
	return buf
}

// DecodeBatch unpacks a batch payload into its sub-messages. Each one is
// decoded — and CRC-checked — independently, so a batch either yields exactly
// the messages that were packed into it or an error; there is no partial
// acceptance of a corrupted batch. The sub-messages' payloads alias payload
// (see Decode).
func DecodeBatch(payload []byte) ([]Message, error) {
	var out []Message
	for len(payload) > 0 {
		if len(payload) < 4 {
			return nil, fmt.Errorf("comm: truncated frame batch header")
		}
		n := binary.LittleEndian.Uint32(payload[:4])
		payload = payload[4:]
		if int64(n) > maxFrame || int(n) > len(payload) {
			return nil, fmt.Errorf("comm: frame batch entry of %d bytes exceeds remaining %d", n, len(payload))
		}
		m, err := Decode(payload[:n])
		if err != nil {
			return nil, err
		}
		out = append(out, m)
		payload = payload[n:]
	}
	return out, nil
}
