// Package comm is Viracocha's lowest layer (paper §3): it hides the concrete
// transport behind one generic message type. Two transports are provided,
// mirroring the paper's MPI-within-cluster / TCP-to-client split: an
// in-process Network whose endpoints exchange messages through clock-aware
// queues with a latency/bandwidth cost model, and a TCP framing codec for
// the visualization-client connection. Upper layers only see Message and the
// Send/Recv of the two: *Endpoint inside the back end, *Conn to the client.
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
	// "error", "ack", "shutdown".
	Kind string
	// Command names the post-processing command this message belongs to.
	Command string
	// ReqID correlates all messages of one request.
	ReqID uint64
	// Seq numbers streamed partial results within a request.
	Seq int
	// Final marks the last message of a request.
	Final bool
	// Worker, Rank, Attempt, Block, BSeq and SSeq are a streamed packet's
	// identity: producing node and group rank, request attempt, block tag and
	// index in the block, and the bridge's stream sequence. Each travels as
	// the parameter of its name in lower case, an integer as strconv.Itoa
	// writes it; an absent one is absent from the wire too.
	Worker                           Opt[string]
	Rank, Attempt, Block, BSeq, SSeq Opt[int]
	// Params carries the other string-encoded parameters. A typed key set
	// here as well is written from its field.
	Params map[string]string
	// Payload carries binary data (encoded meshes, blocks).
	Payload []byte
	// Body carries a typed value between in-process endpoints: the control
	// records of the scheduler and its workers. It is never encoded, so it
	// cannot cross TCP or reach the WAL, and WireSize does not count it. It
	// must not change after the send: a duplicating link delivers it twice.
	Body any

	// seal holds Payload's CRC-32C once SealPayload took it, so that every
	// framing of a payload sent many times reads only its own head.
	seal payloadSeal
}

// Opt is one typed key of a message: its value, and whether the message
// carries the key at all. The zero Opt is absent.
type Opt[T int | string] struct {
	V  T
	OK bool
}

// Some is the present key v.
func Some[T int | string](v T) Opt[T] { return Opt[T]{V: v, OK: true} }

// Or is the key's value, or def when it is absent.
func (o Opt[T]) Or(def T) T {
	if o.OK {
		return o.V
	}
	return def
}

// streamKeys are the typed keys' wire names.
var streamKeys = [...]string{"attempt", "block", "bseq", "rank", "sseq", "worker"}

// streamInt is the typed integer field whose wire name is k, or nil.
func (m *Message) streamInt(k string) *Opt[int] {
	switch k {
	case "attempt":
		return &m.Attempt
	case "block":
		return &m.Block
	case "bseq":
		return &m.BSeq
	case "rank":
		return &m.Rank
	case "sseq":
		return &m.SSeq
	}
	return nil
}

// carries reports whether k is a typed key m carries: its field, not a
// Params entry of the same name, is what the wire gets.
func (m *Message) carries(k string) bool {
	if p := m.streamInt(k); p != nil {
		return p.OK
	}
	return k == "worker" && m.Worker.OK
}

// payloadSeal is a sealed payload's CRC-32C and its crcShift.
type payloadSeal struct {
	sum, shift uint32
	ok         bool
}

// SealPayload takes the payload's CRC-32C once, for a message that is framed
// many times (a memo packet, stamped for every subscriber). The payload must
// not change afterwards; copies of the message carry the seal.
func (m *Message) SealPayload() {
	m.seal = payloadSeal{crc32.Checksum(m.Payload, castagnoli), crcShift(len(m.Payload)), true}
}

// WireSize reports the encoded size of the message, used by transfer cost
// models without forcing an encode. It includes the trailing CRC32-C; a
// typed Body is priced at its envelope.
func (m *Message) WireSize() int64 {
	n := 4 + 4 + len(m.Kind) + 4 + len(m.Command) + 8 + 4 + 1 + 4 + 4 + len(m.Payload) + 4
	for k, v := range m.Params {
		if !m.carries(k) {
			n += 8 + len(k) + len(v)
		}
	}
	var digits [20]byte
	for _, k := range streamKeys {
		if p := m.streamInt(k); p != nil && p.OK {
			n += 8 + len(k) + len(strconv.AppendInt(digits[:0], int64(p.V), 10))
		}
	}
	if m.Worker.OK {
		n += 8 + len("worker") + len(m.Worker.V)
	}
	return int64(n)
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
	buf = append(AppendHead(buf, m, len(m.Payload)), m.Payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[at:], castagnoli))
}

// AppendHead appends what Encode writes ahead of the payload bytes — magic
// through the payload length — for a payload of plen bytes held elsewhere.
// The parameters go out sorted by key, each typed key m carries among them.
func AppendHead(buf []byte, m Message, plen int) []byte {
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
		if !m.carries(k) {
			keys = append(keys, k)
		}
	}
	for _, k := range streamKeys {
		if m.carries(k) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	buf = le.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		putStr(k)
		switch p := m.streamInt(k); {
		case p != nil && p.OK:
			at := len(buf)
			buf = strconv.AppendInt(append(buf, 0, 0, 0, 0), int64(p.V), 10)
			le.PutUint32(buf[at:], uint32(len(buf)-at-4))
		case k == "worker" && m.Worker.OK:
			putStr(m.Worker.V)
		default:
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
func NewFrame(m Message) Frame {
	head := AppendHead(make([]byte, 0, int(m.WireSize())-len(m.Payload)), m, len(m.Payload))
	var sum uint32
	if m.seal.ok {
		sum = mulModP(m.seal.shift, crc32.Checksum(head, castagnoli)) ^ m.seal.sum
	} else {
		sum = Checksum(head, m.Payload)
	}
	buf := binary.LittleEndian.AppendUint32(head, sum)
	return Frame{Head: buf[:len(head)], Payload: m.Payload, Sum: buf[len(head):]}
}

// SumAfter is the CRC-32C of prefix‖Head‖Payload‖Sum. It reads only prefix:
// a frame ends in its own checksum, so its part is the fixed residue.
func (f Frame) SumAfter(prefix []byte) uint32 {
	return CombineChecksum(crc32.Checksum(prefix, castagnoli), frameResidue, f.Len())
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
	m.Kind, m.Command = intern(c.field()), string(c.field())
	m.ReqID = uint64(c.u32()) | uint64(c.u32())<<32
	m.Seq = int(int32(c.u32()))
	if b := c.take(1); b != nil {
		if b[0] > 1 {
			return m, fmt.Errorf("comm: bad final flag %d", b[0])
		}
		m.Final = b[0] == 1
	}
	np := c.u32()
	if np > 1<<16 {
		return m, fmt.Errorf("comm: implausible param count %d", np)
	}
	// A parameter takes at least its two 4-byte lengths: the count alone
	// must not size the map a short hostile frame makes.
	hint := min(np, uint32(len(c.data)/8))
	for i := uint32(0); i < np && !c.short; i++ {
		k, v := c.field(), c.field()
		if c.short {
			break
		}
		if err := m.decodeParam(k, v, hint); err != nil {
			return m, err
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

// decodeParam files one decoded parameter: a typed key into its field, once,
// an integer only as strconv.Itoa writes it; any other key into Params, made
// for n on the first.
func (m *Message) decodeParam(k, v []byte, n uint32) error {
	switch p := m.streamInt(string(k)); {
	case m.carries(string(k)):
		return fmt.Errorf("comm: duplicate %s key", k)
	case string(k) == "worker":
		m.Worker = Some(string(v))
	case p != nil:
		x, ok := canonicalInt(v)
		if !ok {
			return fmt.Errorf("comm: %s key %q is not an integer as strconv.Itoa writes it", k, v)
		}
		*p = Some(x)
	default:
		if m.Params == nil {
			m.Params = make(map[string]string, n)
		}
		m.Params[intern(k)] = string(v)
	}
	return nil
}

// canonicalInt parses v if it is what strconv.Itoa writes.
func canonicalInt(v []byte) (int, bool) {
	x, err := strconv.Atoi(string(v))
	var b [20]byte
	return x, err == nil && string(strconv.AppendInt(b[:0], int64(x), 10)) == string(v)
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

// field reads a length-prefixed string field.
func (c *cursor) field() []byte { return c.take(int(c.u32())) }

// intern is string(b) for a message kind or parameter key: the ones the
// runtime writes come back as constants, without an allocation.
func intern(b []byte) string {
	if s, ok := runtimeNames[string(b)]; ok {
		return s
	}
	return string(b)
}

var runtimeNames = func() map[string]string {
	names := map[string]string{}
	for _, s := range strings.Fields(`partial result ack error command wframe sess session epoch
		span streamed final blocks counts bframes item rid want dataset step workers`) {
		names[s] = s
	}
	return names
}()

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

// frameExact is the most a frame read allocates on a length prefix's word
// alone, and the largest frame buffer a frameReader keeps.
const frameExact = 1 << 20

// frameReader reads length-prefixed frames, each into one buffer it reuses
// frame after frame: a message it returns aliases that buffer (see Decode)
// until the next read. A frame beyond frameExact is read into an allocation
// of its own, grown with the bytes actually received, so a hostile length
// prefix reserves frameExact, not the gigabyte it announces, and the reader
// keeps no buffer larger than frameExact.
type frameReader struct {
	pre [4]byte
	buf []byte
}

func (fr *frameReader) read(r io.Reader) (Message, error) {
	if _, err := io.ReadFull(r, fr.pre[:]); err != nil {
		return Message{}, err
	}
	n := int(binary.LittleEndian.Uint32(fr.pre[:]))
	if n > maxFrame {
		return Message{}, fmt.Errorf("comm: frame length %d exceeds limit", n)
	}
	if n <= frameExact {
		if cap(fr.buf) < n {
			fr.buf = make([]byte, min(max(n, 2*cap(fr.buf)), frameExact))
		}
		data := fr.buf[:n]
		if _, err := io.ReadFull(r, data); err != nil {
			return Message{}, err
		}
		return Decode(data)
	}
	var data []byte
	for len(data) < n {
		got := len(data)
		size := got + min(n-got, max(got, frameExact))
		data = append(make([]byte, 0, size), data...)[:size]
		if _, err := io.ReadFull(r, data[got:]); err != nil {
			return Message{}, err
		}
	}
	return Decode(data)
}

// ReadFrame reads one length-prefixed message from r, reading nothing past
// it, into a buffer of the message's own: Conn.Recv's frame read without the
// read-ahead and without the reuse.
func ReadFrame(r io.Reader) (Message, error) { return new(frameReader).read(r) }

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
