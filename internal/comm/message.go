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
	"net"
	"slices"
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
	// Body carries a typed value between in-process endpoints: the control
	// records of the scheduler and its workers. It is never encoded, so it
	// cannot cross TCP or reach the WAL, and WireSize does not count it. It
	// must not change after the send: a duplicating link delivers it twice.
	Body any
}

// WireSize reports the encoded size of the message, used by transfer cost
// models without forcing an encode. It includes the trailing CRC32-C; a
// typed Body is priced at its envelope.
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

// Encode serializes the message to the wire format: the three parts of
// NewFrame in one buffer.
func Encode(m Message) []byte { return appendEncoded(make([]byte, 0, m.WireSize()), m) }

func appendEncoded(buf []byte, m Message) []byte {
	at := len(buf)
	buf = append(AppendHead(buf, m, len(m.Payload), "", ""), m.Payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[at:], castagnoli))
}

// AppendHead appends what Encode writes ahead of the payload bytes — magic
// through the payload length — for a payload of plen bytes held elsewhere. A
// non-empty key stamps the parameter key=val in (over any value m has for it)
// without a second Params map.
func AppendHead(buf []byte, m Message, plen int, key, val string) []byte {
	le := binary.LittleEndian
	putStr := func(x string) {
		buf = append(le.AppendUint32(buf, uint32(len(x))), x...)
	}
	buf = le.AppendUint32(buf, frameMagic)
	putStr(m.Kind)
	putStr(m.Command)
	buf = le.AppendUint64(buf, m.ReqID)
	buf = le.AppendUint32(buf, uint32(int32(m.Seq)))
	buf = append(buf, 0)
	if m.Final {
		buf[len(buf)-1] = 1
	}
	var scratch [16]string // keeps the sort off the heap for the runtime's messages
	keys := scratch[:0]
	for k := range m.Params {
		if k != key {
			keys = append(keys, k)
		}
	}
	if key != "" {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	buf = le.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		putStr(k)
		if k == key {
			putStr(val)
		} else {
			putStr(m.Params[k])
		}
	}
	return le.AppendUint32(buf, uint32(plen))
}

// Frame is a message's wire encoding in three parts, so that a payload goes
// from the actor that produced it to the socket, the stream log and the WAL
// without being copied: Head + Payload + Sum is byte for byte Encode's output.
type Frame struct {
	Head    []byte // magic through the payload length
	Payload []byte // the message's payload, aliased
	Sum     []byte // CRC32-C over Head and Payload; shares Head's allocation
}

// NewFrame encodes m around its payload.
func NewFrame(m Message) Frame { return StampFrame(m, "", "") }

// StampFrame is NewFrame with key=val stamped in as by AppendHead.
func StampFrame(m Message, key, val string) Frame {
	n := int(m.WireSize()) - len(m.Payload) + 8 + len(key) + len(val) // room for the stamp
	head := AppendHead(make([]byte, 0, n), m, len(m.Payload), key, val)
	buf := binary.LittleEndian.AppendUint32(head, Checksum(head, m.Payload))
	return Frame{Head: buf[:len(head)], Payload: m.Payload, Sum: buf[len(head):]}
}

// Len is the encoded size: what the length prefix in front of a frame says.
func (f Frame) Len() int { return len(f.Head) + len(f.Payload) + len(f.Sum) }

// Checksum is the frame CRC32-C over the concatenation of parts.
func Checksum(parts ...[]byte) (sum uint32) {
	for _, p := range parts {
		sum = crc32.Update(sum, castagnoli, p)
	}
	return sum
}

// Decode parses the wire format produced by Encode, first verifying the
// trailing CRC32-C so corruption is detected before any field is trusted.
// The returned Payload aliases data — a received frame's buffer is its payload.
// The caller must not write to data while the message is in use, and the
// message keeps all of data reachable.
func Decode(data []byte) (Message, error) {
	var m Message
	if len(data) < 8 {
		return m, errors.New("comm: truncated message")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return m, ErrChecksum
	}
	c := cursor{data: body}
	if magic := c.u32(); magic != frameMagic {
		return m, fmt.Errorf("comm: bad magic %#x", magic)
	}
	m.Kind, m.Command = c.str(), c.str()
	m.ReqID = uint64(c.u32()) | uint64(c.u32())<<32
	m.Seq = int(int32(c.u32()))
	if b := c.take(1); b != nil {
		m.Final = b[0] == 1
	}
	np := c.u32()
	if np > 1<<16 {
		return m, fmt.Errorf("comm: implausible param count %d", np)
	}
	if np > 0 {
		m.Params = make(map[string]string, np)
		for i := uint32(0); i < np && !c.short; i++ {
			k := c.str()
			m.Params[k] = c.str()
		}
	}
	plen := c.u32()
	if c.short {
		return m, errors.New("comm: truncated message")
	}
	if int(plen) != len(c.data) {
		return m, errors.New("comm: payload length mismatch")
	}
	if plen > 0 {
		m.Payload = c.data[:plen:plen]
	}
	return m, nil
}

// cursor reads an encoded message's fields in order. A read past the end
// latches short and yields zero values from then on.
type cursor struct {
	data  []byte
	short bool
}

func (c *cursor) take(n int) []byte {
	if n < 0 || n > len(c.data) {
		c.short, c.data = true, nil
		return nil
	}
	b := c.data[:n]
	c.data = c.data[n:]
	return b
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) str() string { return string(c.take(int(c.u32()))) }

// frameWriter is the one way a frame reaches a writer: length prefix and parts
// in a single vectored write (writev on a TCP connection, consecutive Writes on
// a plain io.Writer), out of scratch a long-lived owner (Conn) reuses.
type frameWriter struct {
	pre [4]byte
	arr [4][]byte
	vec net.Buffers
}

func (fw *frameWriter) write(w io.Writer, f Frame) error {
	binary.LittleEndian.PutUint32(fw.pre[:], uint32(f.Len()))
	fw.vec = append(fw.arr[:0], fw.pre[:], f.Head, f.Payload, f.Sum)
	_, err := fw.vec.WriteTo(w)
	fw.arr = [4][]byte{} // the payload is the caller's; do not keep it alive
	return err
}

// frameExact is the most ReadFrame allocates on a length prefix's word alone.
const frameExact = 1 << 20

// ReadFrame reads one length-prefixed message from r. The buffer it reads
// into becomes the message's payload (see Decode).
func ReadFrame(r io.Reader) (Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Message{}, err
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n > maxFrame {
		return Message{}, fmt.Errorf("comm: frame length %d exceeds limit", n)
	}
	var data []byte
	for len(data) < n {
		// A hostile prefix reserves frameExact, then only what was sent to back it.
		got := len(data)
		size := got + min(n-got, max(got, frameExact))
		data = append(make([]byte, 0, size), data...)[:size]
		if _, err := io.ReadFull(r, data[got:]); err != nil {
			return Message{}, err
		}
	}
	return Decode(data)
}

// FloatParam parses a float parameter with a default.
func (m *Message) FloatParam(key string, def float64) float64 {
	f := parsed(m.Params[key], def, "%g", func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
	if math.IsNaN(f) {
		return def
	}
	return f
}

// IntParam parses an integer parameter with a default.
func (m *Message) IntParam(key string, def int) int {
	return parsed(m.Params[key], def, "%d", strconv.Atoi)
}

// parsed reads a parameter value with strconv — all the runtime writes itself,
// at no allocation — and gives what that rejects the fmt.Sscanf reading it
// always had (leading space skipped, trailing text ignored). Empty is def.
func parsed[T int | float64](v string, def T, verb string, parse func(string) (T, error)) T {
	if v == "" {
		return def
	}
	x, err := parse(v)
	if err != nil {
		var scanned T // escapes into Sscanf: declared on the slow path only
		if _, err := fmt.Sscanf(v, verb, &scanned); err != nil {
			return def
		}
		x = scanned
	}
	return x
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
