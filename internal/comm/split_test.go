package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"viracocha/internal/vclock"
)

// concat is a frame's whole-buffer form.
func (f Frame) concat() []byte { return slices.Concat(f.Head, f.Payload, f.Sum) }

// checkFrameIsEncode: the split form concatenates to Encode's bytes and
// aliases the payload, and its checksum sits behind its head.
func checkFrameIsEncode(t *testing.T, m Message) {
	t.Helper()
	f := NewFrame(m)
	if !bytes.Equal(f.concat(), Encode(m)) {
		t.Fatalf("frame parts of %+v do not concatenate to Encode", m)
	}
	if f.Len() != int(m.WireSize()) || &f.Head[:len(f.Head)+1][len(f.Head)] != &f.Sum[0] {
		t.Fatalf("frame of %d bytes for a wire size of %d, or its checksum is not behind its head", f.Len(), m.WireSize())
	}
	if len(m.Payload) > 0 && &f.Payload[0] != &m.Payload[0] {
		t.Fatal("frame copied the payload")
	}
}

func TestFrameIsEncodeInParts(t *testing.T) {
	many := Message{Kind: "wdone", Params: map[string]string{}}
	for i := 0; i < 40; i++ { // more keys than the sort scratch holds
		many.Params[fmt.Sprintf("k%02d", i)] = strconv.Itoa(i)
	}
	for _, m := range []Message{sampleMessage(), {}, {Kind: "ack"}, many,
		{Kind: "partial", Rank: Some(1), Payload: []byte("xyz")}} {
		checkFrameIsEncode(t, m)
		m.SSeq = Some(1048577) // the bridge's stamp: new, or over the one m carries
		checkFrameIsEncode(t, m)
	}
}

// TestTypedFieldOverridesParams: a typed key set in Params as well as in its
// field goes out once, with the field's value; absent from the field, the
// Params entry goes out as it is.
func TestTypedFieldOverridesParams(t *testing.T) {
	typed := Message{Kind: "ack", Rank: Some(1), SSeq: Some(12)}
	both := typed
	both.Params = map[string]string{"rank": "9", "sseq": "x", "z": "last"}
	want := typed
	want.Params = map[string]string{"z": "last"}
	if !bytes.Equal(Encode(both), Encode(want)) || both.WireSize() != want.WireSize() {
		t.Fatal("a field and a Params entry of the same key both reached the wire")
	}
	only := Message{Kind: "ack", Params: map[string]string{"rank": "1", "sseq": "12"}}
	if !bytes.Equal(Encode(only), Encode(typed)) || only.WireSize() != typed.WireSize() {
		t.Fatal("a typed key held only in Params is not written as the field would be")
	}
}

// FuzzFrameIsEncode seeds from the decoder's corpus: whatever decodes, its
// checksum made good, must split into parts that concatenate to its encoding,
// with the bridge's sseq set over it (sseq >= 0) or not.
func FuzzFrameIsEncode(f *testing.F) {
	f.Add(Encode(sampleMessage()), 7)
	f.Add(Encode(Message{}), -1)
	f.Add([]byte{}, 0)
	f.Add(EncodeBatch(batchMessages())[4:], 1048577)
	f.Fuzz(func(t *testing.T, data []byte, sseq int) {
		m, err := Decode(resealed(data))
		if err != nil {
			return
		}
		if sseq >= 0 {
			m.SSeq = Some(sseq)
		}
		checkFrameIsEncode(t, m)
	})
}

// TestDecodeAliasesInput pins the contract ReadFrame's one allocation rests
// on: a decoded payload is the tail of the input buffer, not a copy, and
// cannot be appended into the checksum behind it.
func TestDecodeAliasesInput(t *testing.T) {
	data := Encode(sampleMessage())
	m, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	at := len(data) - 4 - len(m.Payload)
	if &m.Payload[0] != &data[at] {
		t.Fatal("Decode copied the payload")
	}
	if cap(m.Payload) != len(m.Payload) {
		t.Fatalf("payload cap %d runs past its %d bytes into the checksum", cap(m.Payload), len(m.Payload))
	}
	batch := EncodeBatch([]Message{sampleMessage()})
	ms, err := DecodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if &ms[0].Payload[0] != &batch[4+at] {
		t.Fatal("DecodeBatch copied a sub-message's payload")
	}
}

// TestSendFrameByteStream: whatever the writer — a pipe taking the parts as
// consecutive writes, a TCP socket taking them as one writev — the stream is
// the length prefix followed by Encode's bytes, frame after frame.
func TestSendFrameByteStream(t *testing.T) {
	msgs := []Message{sampleMessage(), {Kind: "ack"}, {Kind: "result", Final: true, Payload: bytes.Repeat([]byte{7}, 70000)}}
	var want []byte
	for _, m := range msgs {
		want = binary.LittleEndian.AppendUint32(want, uint32(m.WireSize()))
		want = append(want, Encode(m)...)
	}
	pipe := func() (net.Conn, net.Conn) { return net.Pipe() }
	tcp := func() (net.Conn, net.Conn) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		out, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		in, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return out, in
	}
	for name, link := range map[string]func() (net.Conn, net.Conn){"pipe": pipe, "tcp": tcp} {
		out, in := link()
		got := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(in)
			got <- b
		}()
		c := NewConn(out)
		for i, m := range msgs {
			var err error
			if i%2 == 0 {
				err = c.Send(m)
			} else {
				err = c.SendFrame(NewFrame(m))
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		c.Close()
		if b := <-got; !bytes.Equal(b, want) {
			t.Errorf("%s: stream of %d bytes differs from prefix + Encode (%d bytes)", name, len(b), len(want))
		}
		in.Close()
		for _, part := range c.fw.arr {
			if part != nil {
				t.Errorf("%s: the connection kept the last frame's parts alive", name)
			}
		}
	}
}

// TestReadFrameEarnsLargeBuffers: a frame beyond frameExact still round-trips,
// and a hostile length prefix with nothing behind it costs an error and at
// most the first chunk — not the gigabyte it announced.
func TestReadFrameEarnsLargeBuffers(t *testing.T) {
	big := Message{Kind: "result", Payload: bytes.Repeat([]byte{0xab, 0xcd, 0xef}, frameExact)}
	var buf bytes.Buffer
	if err := new(frameWriter).write(&buf, NewFrame(big)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || !bytes.Equal(got.Payload, big.Payload) {
		t.Fatalf("frame of %d bytes did not round-trip: %v", big.WireSize(), err)
	}

	hostile := binary.LittleEndian.AppendUint32(nil, maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ReadFrame(bytes.NewReader(hostile))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a length prefix with no frame behind it was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
		t.Fatalf("four hostile bytes made ReadFrame allocate %d bytes", grew)
	}
	if _, err := ReadFrame(bytes.NewReader(binary.LittleEndian.AppendUint32(nil, maxFrame+1))); err == nil {
		t.Fatal("a length beyond the frame limit was accepted")
	}
}

// sscanInt and sscanFloat are IntParam and FloatParam as they were: the
// reference the strconv fast path is checked against.
func sscanInt(v string, def int) int {
	var i int
	if _, err := fmt.Sscanf(v, "%d", &i); err != nil {
		return def
	}
	return i
}

func sscanFloat(v string, def float64) float64 {
	var f float64
	if _, err := fmt.Sscanf(v, "%g", &f); err != nil || math.IsNaN(f) {
		return def
	}
	return f
}

// TestParamParsingMatchesSscanf: every spelling the runtime writes itself
// (strconv.Itoa, CanonicalFloat) and a table of malformed ones read exactly as
// the fmt.Sscanf parse read them. What strconv accepts it reads alone,
// without allocating; what it rejects is handed to Sscanf unchanged, so the
// "behaviour" column below is the old behaviour, stated.
func TestParamParsingMatchesSscanf(t *testing.T) {
	param := func(v string) *Message { return &Message{Params: map[string]string{"k": v}} }
	ints := []int{0, 1, -1, 7, 46, 47, 99, 100, 1 << 20, 1<<20 + 47, 1 << 30, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	for _, i := range ints {
		v := strconv.Itoa(i)
		if got := param(v).IntParam("k", -99); got != i || got != sscanInt(v, -99) {
			t.Errorf("IntParam(%q) = %d, Sscanf read %d", v, got, sscanInt(v, -99))
		}
	}
	floats := []string{"0", "0.5", "0.50", "5e-1", "007", "-1000", "500", "1e300", "-2.5e-7", "3.4028235e38",
		"0.1", "1e-320", " 0.25 ", "+4", ".5", "5.", "1_0", "0x1p-2"}
	for _, s := range floats {
		v := CanonicalFloat(s)
		if got, want := param(v).FloatParam("k", -99), sscanFloat(v, -99); got != want {
			t.Errorf("FloatParam(%q) = %v, Sscanf read %v", v, got, want)
		}
		if v != s { // the raw spelling too: a request parameter is not canonicalised before it is parsed
			if got, want := param(s).FloatParam("k", -99), sscanFloat(s, -99); got != want {
				t.Errorf("FloatParam(%q) = %v, Sscanf read %v", s, got, want)
			}
		}
	}
	malformed := []struct {
		in        string
		i         int     // IntParam with default -99
		f         float64 // FloatParam with default -99
		behaviour string
	}{
		{"", -99, -99, "empty: the default"},
		{"abc", -99, -99, "no number: the default"},
		{" 12", 12, 12, "leading space is skipped"},
		{"12 ", 12, 12, "trailing space is ignored"},
		{"12abc", 12, 12, "the numeric prefix counts, the rest is ignored"},
		{"7.0", 7, 7, "an integer reads up to the point"},
		{"1e1", 1, 10, "an integer reads up to the exponent"},
		{"+5", 5, 5, "an explicit plus sign is accepted"},
		{"-", -99, -99, "a bare sign: the default"},
		{"0x10", 0, -99, "%d stops at the x; a hex float needs its p exponent"},
		{"0x1p4", 0, 16, "a hex float with one reads as such"},
		{"1_000", 1, 1000, "%d stops at the underscore, %g reads through it"},
		{"99999999999999999999999", -99, 1e23, "integer overflow: the default"},
		{"1e999", 1, -99, "float overflow: the default"},
		{"NaN", -99, -99, "NaN is never a parameter value: the default"},
		{"Inf", -99, math.Inf(1), "an infinity is passed through, as before"},
		{"١٢", -99, -99, "non-ASCII digits: the default"},
	}
	for _, tc := range malformed {
		m := param(tc.in)
		if got := m.IntParam("k", -99); got != tc.i || got != sscanInt(tc.in, -99) {
			t.Errorf("IntParam(%q) = %d, want %d (%s); Sscanf read %d", tc.in, got, tc.i, tc.behaviour, sscanInt(tc.in, -99))
		}
		if got := m.FloatParam("k", -99); got != tc.f || got != sscanFloat(tc.in, -99) {
			t.Errorf("FloatParam(%q) = %v, want %v (%s); Sscanf read %v", tc.in, got, tc.f, tc.behaviour, sscanFloat(tc.in, -99))
		}
	}
	if m := param("1"); m.IntParam("absent", 3) != 3 || m.FloatParam("absent", 2.5) != 2.5 {
		t.Error("an absent parameter did not take its default")
	}
	m := param("1048577")
	if n := testing.AllocsPerRun(100, func() { m.IntParam("k", 0); m.FloatParam("k", 0) }); n != 0 {
		t.Errorf("parsing a well-formed parameter allocates %v objects", n)
	}
}

// FuzzParamParsing: for any string at all the two parses agree.
func FuzzParamParsing(f *testing.F) {
	for _, s := range []string{"", "12", "-7", " 3", "1e3", "0x1p-2", "1_0", "nan", "+Inf", "9223372036854775808", "12abc"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		m := &Message{Params: map[string]string{"k": v}}
		if got, want := m.IntParam("k", -99), sscanInt(v, -99); got != want {
			t.Fatalf("IntParam(%q) = %d, Sscanf read %d", v, got, want)
		}
		if got, want := m.FloatParam("k", -99), sscanFloat(v, -99); got != want {
			t.Fatalf("FloatParam(%q) = %v, Sscanf read %v", v, got, want)
		}
	})
}

// TestFreeFabricIsFree: a fabric with no link price hands every message
// straight over — nobody sleeps, nobody queues on an inbound link; a priced
// fabric prices them all.
func TestFreeFabricIsFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		latency time.Duration
		priced  int64
		elapsed time.Duration
	}{
		{"free", 0, 0, 0},
		{"priced", 10, 3, 30},
	} {
		v := vclock.NewVirtual()
		n := NewNetwork(v, tc.latency, 0)
		a, b := n.Endpoint("a"), n.Endpoint("b")
		v.Go(func() {
			a.Send("b", Message{Kind: "command"})
			a.Send("b", Message{Kind: "partial"})
			a.Send("b", Message{Kind: "result"})
		})
		v.Wait()
		if st := n.Stats(); st.Messages != 3 || st.Priced != tc.priced || b.inbox.Len() != 3 {
			t.Errorf("%s fabric: %d messages, %d priced, %d delivered; want 3, %d, 3", tc.name, st.Messages, st.Priced, b.inbox.Len(), tc.priced)
		}
		if v.Now() != tc.elapsed {
			t.Errorf("%s fabric: senders slept %v in all, want %v", tc.name, v.Now(), tc.elapsed)
		}
	}
}
