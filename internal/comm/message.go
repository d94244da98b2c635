// Package comm is Viracocha's lowest layer (paper §3): it hides the concrete
// transport behind a generic message interface. Two transports are provided,
// mirroring the paper's MPI-within-cluster / TCP-to-client split: an
// in-process Network whose endpoints exchange messages through clock-aware
// queues with a latency/bandwidth cost model, and a TCP framing codec for
// the visualization-client connection. Upper layers only see Message,
// Sender and Receiver.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Message is the generic envelope exchanged between the visualization
// client, the scheduler and the workers.
type Message struct {
	// Kind discriminates the protocol role: "command", "partial", "result",
	// "progress", "error", "ack", "shutdown".
	Kind string
	// Command names the post-processing command this message belongs to.
	Command string
	// ReqID correlates all messages of one request.
	ReqID uint64
	// Seq numbers streamed partial results within a request.
	Seq int
	// Final marks the last message of a request.
	Final bool
	// Params carries string-encoded command parameters and annotations.
	Params map[string]string
	// Payload carries binary data (encoded meshes, blocks).
	Payload []byte
}

// WireSize reports the encoded size of the message, used by transfer cost
// models without forcing an encode. It includes the trailing CRC32-C.
func (m *Message) WireSize() int64 {
	n := 4 + 4 + len(m.Kind) + 4 + len(m.Command) + 8 + 4 + 1 + 4 + 4 + len(m.Payload) + 4
	for k, v := range m.Params {
		n += 8 + len(k) + len(v)
	}
	return int64(n)
}

// Sender is the outbound half of a transport.
type Sender interface {
	Send(m Message) error
}

// Receiver is the inbound half of a transport. Recv blocks until a message
// arrives; ok is false once the transport is closed and drained.
type Receiver interface {
	Recv() (Message, bool)
}

const frameMagic = 0x56524d47 // "VRMG"

// maxFrame bounds a frame to guard against corrupt length prefixes.
const maxFrame = 1 << 30

// castagnoli is the CRC32-C polynomial table used for frame integrity.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a frame whose trailing CRC32-C did not match its
// contents: the frame was corrupted in flight or at rest.
var ErrChecksum = errors.New("comm: frame checksum mismatch")

// Encode serializes the message to the wire format.
func Encode(m Message) []byte {
	buf := make([]byte, 0, m.WireSize())
	var s [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(s[:4], v)
		buf = append(buf, s[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(s[:], v)
		buf = append(buf, s[:]...)
	}
	putStr := func(x string) {
		put32(uint32(len(x)))
		buf = append(buf, x...)
	}
	put32(frameMagic)
	putStr(m.Kind)
	putStr(m.Command)
	put64(m.ReqID)
	put32(uint32(int32(m.Seq)))
	if m.Final {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	keys := make([]string, 0, len(m.Params))
	for k := range m.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	put32(uint32(len(keys)))
	for _, k := range keys {
		putStr(k)
		putStr(m.Params[k])
	}
	put32(uint32(len(m.Payload)))
	buf = append(buf, m.Payload...)
	put32(crc32.Checksum(buf, castagnoli))
	return buf
}

// Decode parses the wire format produced by Encode, first verifying the
// trailing CRC32-C so corruption is detected before any field is trusted.
func Decode(data []byte) (Message, error) {
	var m Message
	if len(data) < 8 {
		return m, errors.New("comm: truncated message")
	}
	body := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != want {
		return m, ErrChecksum
	}
	data = body
	off := 0
	get32 := func() (uint32, error) {
		if off+4 > len(data) {
			return 0, errors.New("comm: truncated message")
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v, nil
	}
	get64 := func() (uint64, error) {
		if off+8 > len(data) {
			return 0, errors.New("comm: truncated message")
		}
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v, nil
	}
	getStr := func() (string, error) {
		n, err := get32()
		if err != nil {
			return "", err
		}
		if n > maxFrame || off+int(n) > len(data) {
			return "", errors.New("comm: truncated or oversized string")
		}
		v := string(data[off : off+int(n)])
		off += int(n)
		return v, nil
	}
	magic, err := get32()
	if err != nil {
		return m, err
	}
	if magic != frameMagic {
		return m, fmt.Errorf("comm: bad magic %#x", magic)
	}
	if m.Kind, err = getStr(); err != nil {
		return m, err
	}
	if m.Command, err = getStr(); err != nil {
		return m, err
	}
	if m.ReqID, err = get64(); err != nil {
		return m, err
	}
	seq, err := get32()
	if err != nil {
		return m, err
	}
	m.Seq = int(int32(seq))
	if off >= len(data) {
		return m, errors.New("comm: truncated message")
	}
	m.Final = data[off] == 1
	off++
	np, err := get32()
	if err != nil {
		return m, err
	}
	if np > 1<<16 {
		return m, fmt.Errorf("comm: implausible param count %d", np)
	}
	if np > 0 {
		m.Params = make(map[string]string, np)
		for i := uint32(0); i < np; i++ {
			k, err := getStr()
			if err != nil {
				return m, err
			}
			v, err := getStr()
			if err != nil {
				return m, err
			}
			m.Params[k] = v
		}
	}
	plen, err := get32()
	if err != nil {
		return m, err
	}
	if plen > maxFrame || off+int(plen) != len(data) {
		return m, errors.New("comm: payload length mismatch")
	}
	if plen > 0 {
		m.Payload = append([]byte(nil), data[off:off+int(plen)]...)
	}
	return m, nil
}

// WriteFrame writes one length-prefixed message to w (the TCP transport).
func WriteFrame(w io.Writer, m Message) error { return writeEncoded(w, Encode(m)) }

// writeEncoded writes one length-prefixed frame of already-encoded bytes.
func writeEncoded(w io.Writer, data []byte) error {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(data)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// ReadFrame reads one length-prefixed message from r.
func ReadFrame(r io.Reader) (Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > maxFrame {
		return Message{}, fmt.Errorf("comm: frame length %d exceeds limit", n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return Message{}, err
	}
	return Decode(data)
}

// FloatParam parses a float parameter with a default.
func (m *Message) FloatParam(key string, def float64) float64 {
	v, ok := m.Params[key]
	if !ok {
		return def
	}
	var f float64
	if _, err := fmt.Sscanf(v, "%g", &f); err != nil || math.IsNaN(f) {
		return def
	}
	return f
}

// IntParam parses an integer parameter with a default.
func (m *Message) IntParam(key string, def int) int {
	v, ok := m.Params[key]
	if !ok {
		return def
	}
	var i int
	if _, err := fmt.Sscanf(v, "%d", &i); err != nil {
		return def
	}
	return i
}

// EncodeIntList renders an integer list as a compact comma-separated param
// value — the wire form of block spans and completion watermarks. The empty
// list encodes as "" and round-trips through ParseIntList.
func EncodeIntList(items []int) string {
	var b strings.Builder
	for i, v := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// ParseIntList parses a comma-separated integer list produced by
// EncodeIntList, skipping malformed elements so a damaged param degrades to
// a shorter list instead of an error.
func ParseIntList(s string) []int {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	items := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			continue
		}
		items = append(items, v)
	}
	return items
}
