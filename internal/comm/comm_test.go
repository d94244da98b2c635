package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"viracocha/internal/vclock"
)

func sampleMessage() Message {
	return Message{
		Kind:    "partial",
		Command: "iso.viewer",
		ReqID:   42,
		Seq:     7,
		Final:   true,
		Worker:  Some("w3"),
		Rank:    Some(2),
		SSeq:    Some(-11),
		Params:  map[string]string{"iso": "0.5", "field": "pressure"},
		Payload: []byte{1, 2, 3, 4, 5},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestEncodeDecodeEmptyMessage(t *testing.T) {
	got, err := Decode(Encode(Message{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, Message{}) {
		t.Fatalf("empty round trip = %+v", got)
	}
}

func TestNegativeSeqSurvives(t *testing.T) {
	m := Message{Kind: "x", Seq: -3}
	got, err := Decode(Encode(m))
	if err != nil || got.Seq != -3 {
		t.Fatalf("Seq = %d, err %v", got.Seq, err)
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	good := Encode(sampleMessage())
	cases := map[string][]byte{
		"empty":     {},
		"badmagic":  append([]byte{0, 0, 0, 0}, good[4:]...),
		"truncated": good[:len(good)-2],
		"trailing":  append(append([]byte{}, good...), 0xFF),
	}
	for name, d := range cases {
		if _, err := Decode(d); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// rawFrame is an ack frame carrying the key=value pairs kv as given, in
// order, duplicates and all: what a hostile peer can put on the wire.
func rawFrame(kv ...string) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, frameMagic)
	put := func(s string) { b = append(le.AppendUint32(b, uint32(len(s))), s...) }
	put("ack")
	put("")
	b = le.AppendUint64(b, 3)
	b = le.AppendUint32(b, 0)
	b = append(b, 0)
	b = le.AppendUint32(b, uint32(len(kv)/2))
	for _, s := range kv {
		put(s)
	}
	b = le.AppendUint32(b, 0)
	return le.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// TestDecodeRejectsNonCanonicalStreamKeys: a typed key is what strconv.Itoa
// writes, once, or the frame is rejected at the boundary; what Itoa writes is
// accepted into the field and re-encodes to the same bytes.
func TestDecodeRejectsNonCanonicalStreamKeys(t *testing.T) {
	for _, kv := range [][]string{
		{"rank", "07"}, {"rank", " 3"}, {"rank", "x"}, {"rank", ""}, {"rank", "+3"},
		{"rank", "-0"}, {"sseq", "3 "}, {"attempt", "1e3"}, {"block", "99999999999999999999"},
		{"rank", "1", "rank", "1"}, {"bseq", "0", "bseq", "1"}, {"worker", "w1", "worker", "w1"},
	} {
		if m, err := Decode(rawFrame(kv...)); err == nil {
			t.Errorf("%q accepted as %+v", kv, m)
		}
	}
	for _, c := range []struct {
		kv   []string
		want Message
	}{
		{[]string{"rank", "0"}, Message{Rank: Some(0)}},
		{[]string{"attempt", "1073741824", "sseq", "-5"}, Message{Attempt: Some(1 << 30), SSeq: Some(-5)}},
		{[]string{"block", strconv.Itoa(math.MinInt), "bseq", strconv.Itoa(math.MaxInt)},
			Message{Block: Some(math.MinInt), BSeq: Some(math.MaxInt)}},
		{[]string{"span", "07", "worker", ""}, Message{Worker: Some(""), Params: map[string]string{"span": "07"}}},
	} {
		data := rawFrame(c.kv...)
		m, err := Decode(data)
		c.want.Kind, c.want.ReqID = "ack", 3
		if err != nil || !reflect.DeepEqual(m, c.want) {
			t.Errorf("%q decoded to %+v, %v; want %+v", c.kv, m, err, c.want)
		}
		if !bytes.Equal(Encode(m), data) {
			t.Errorf("%q does not re-encode to its own bytes", c.kv)
		}
	}
}

// TestDecodeParamsSizedByFrame: a frame that claims 65,535 parameters but
// holds one is rejected without allocating for the 65,535 its count claims.
func TestDecodeParamsSizedByFrame(t *testing.T) {
	data := rawFrame("a", "b")
	binary.LittleEndian.PutUint32(data[4+4+3+4+8+4+1:], 65535)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], castagnoli))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew > 4096 {
		t.Fatalf("a %d-byte frame claiming 65535 parameters: err %v, %d bytes allocated", len(data), err, grew)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Message{
			Kind:    randStr(rng, 8),
			Command: randStr(rng, 12),
			ReqID:   rng.Uint64(),
			Seq:     rng.Intn(1000) - 500,
			Final:   rng.Intn(2) == 0,
		}
		if n := rng.Intn(4); n > 0 {
			m.Params = map[string]string{}
			for i := 0; i < n; i++ {
				m.Params[randStr(rng, 5)] = randStr(rng, 9)
			}
		}
		for _, p := range []*Opt[int]{&m.Attempt, &m.Block, &m.BSeq, &m.Rank, &m.SSeq} {
			if rng.Intn(2) == 0 {
				*p = Some(int(rng.Int63()>>rng.Intn(63)) * (1 - 2*rng.Intn(2)))
			}
		}
		if rng.Intn(2) == 0 {
			m.Worker = Some(randStr(rng, 4))
		}
		if rng.Intn(2) == 0 {
			m.Payload = make([]byte, rng.Intn(256))
			rng.Read(m.Payload)
			if len(m.Payload) == 0 {
				m.Payload = nil
			}
		}
		got, err := Decode(Encode(m))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randStr(rng *rand.Rand, n int) string {
	const alpha = "abcdefghijklmnop.=?"
	b := make([]byte, rng.Intn(n)+1)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

func TestWireSizeMatchesEncode(t *testing.T) {
	m := sampleMessage()
	if int64(len(Encode(m))) != m.WireSize() {
		t.Fatalf("WireSize %d != encoded %d", m.WireSize(), len(Encode(m)))
	}
}

func TestParamHelpers(t *testing.T) {
	m := Message{Params: map[string]string{"iso": "0.25", "workers": "8", "junk": "x"}}
	if got := m.FloatParam("iso", -1); got != 0.25 {
		t.Fatalf("FloatParam = %v", got)
	}
	if got := m.FloatParam("missing", -1); got != -1 {
		t.Fatalf("FloatParam default = %v", got)
	}
	if got := m.FloatParam("junk", -1); got != -1 {
		t.Fatalf("FloatParam junk = %v", got)
	}
	if got := m.IntParam("workers", 0); got != 8 {
		t.Fatalf("IntParam = %v", got)
	}
	if got := m.IntParam("junk", 3); got != 3 {
		t.Fatalf("IntParam junk = %v", got)
	}
}

func TestIntListRoundTrip(t *testing.T) {
	for _, items := range [][]int{nil, {}, {0}, {5}, {3, 1, 4, 1, 5, 9}, {-2, 0, 7}} {
		enc := EncodeIntList(items)
		got := ParseIntList(enc)
		if len(got) != len(items) {
			t.Fatalf("round trip of %v via %q = %v", items, enc, got)
		}
		for i := range items {
			if got[i] != items[i] {
				t.Fatalf("round trip of %v via %q = %v", items, enc, got)
			}
		}
	}
	if got := EncodeIntList(nil); got != "" {
		t.Fatalf("EncodeIntList(nil) = %q, want empty", got)
	}
	if got := ParseIntList(""); got != nil {
		t.Fatalf("ParseIntList(\"\") = %v, want nil", got)
	}
	// Malformed elements are skipped, not fatal: a damaged watermark loses
	// items, it does not poison the journal.
	if got := ParseIntList("1,x,3"); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("ParseIntList with junk = %v", got)
	}
}

func TestFrameRoundTripOverBuffer(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{sampleMessage(), {Kind: "ack"}, {Kind: "result", Final: true}}
	for _, m := range msgs {
		if err := new(frameWriter).write(&buf, NewFrame(m)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame mismatch: %+v vs %+v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("expected EOF on drained buffer")
	}
}

func TestNetworkDelivery(t *testing.T) {
	v := vclock.NewVirtual()
	net := NewNetwork(v, 0, 0)
	sched := net.Endpoint("scheduler")
	w0 := net.Endpoint("w0")
	var got Message
	v.Go(func() {
		m, ok := w0.Recv()
		if !ok {
			t.Error("recv failed")
			return
		}
		got = m
	})
	v.Go(func() {
		if err := sched.Send("w0", Message{Kind: "command", Command: "iso"}); err != nil {
			t.Error(err)
		}
	})
	v.Wait()
	if got.Kind != "command" || got.Command != "iso" {
		t.Fatalf("got %+v", got)
	}
	if s := net.Stats(); s.Messages != 1 || s.Bytes <= 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNetworkChargesTransferCost(t *testing.T) {
	v := vclock.NewVirtual()
	// 1 KB/ms bandwidth (1e6 B/s), 5ms latency.
	fabric := NewNetwork(v, 5*time.Millisecond, 1e6)
	a := fabric.Endpoint("a")
	b := fabric.Endpoint("b")
	payload := make([]byte, 100000)
	m := Message{Kind: "partial", Payload: payload}
	wire := m.WireSize()
	v.Go(func() {
		a.Send("b", m)
	})
	v.Go(func() {
		b.Recv()
	})
	v.Wait()
	want := 5*time.Millisecond + time.Duration(float64(wire)/1e6*float64(time.Second))
	if v.Now() != want {
		t.Fatalf("send charged %v, want %v", v.Now(), want)
	}
}

func TestNetworkUnknownEndpoint(t *testing.T) {
	v := vclock.NewVirtual()
	fabric := NewNetwork(v, 0, 0)
	a := fabric.Endpoint("a")
	v.Go(func() {
		if err := a.Send("ghost", Message{}); err == nil {
			t.Error("expected error for unknown endpoint")
		}
	})
	v.Wait()
}

func TestEndpointCloseDrains(t *testing.T) {
	v := vclock.NewVirtual()
	fabric := NewNetwork(v, 0, 0)
	a := fabric.Endpoint("a")
	b := fabric.Endpoint("b")
	v.Go(func() {
		a.Send("b", Message{Kind: "one"})
		a.Send("b", Message{Kind: "two"})
		b.Close()
	})
	var kinds []string
	v.Go(func() {
		// Give the sender a head start so both messages are queued.
		v.Sleep(time.Millisecond)
		for {
			m, ok := b.Recv()
			if !ok {
				return
			}
			kinds = append(kinds, m.Kind)
		}
	})
	v.Wait()
	if len(kinds) != 2 {
		t.Fatalf("drained %v", kinds)
	}
}

// TestLeaveTakesEndpointOffFabric: a closed endpoint stays on the fabric (a
// send to it is ErrDown, a crashed node); one that left is gone from it.
func TestLeaveTakesEndpointOffFabric(t *testing.T) {
	fabric := NewNetwork(vclock.NewVirtual(), 0, 0)
	a := fabric.Endpoint("a")
	fabric.Endpoint("closed").Close()
	b := fabric.Endpoint("b")
	if n := fabric.Stats().Endpoints; n != 3 {
		t.Fatalf("%d endpoints, want 3", n)
	}
	b.Leave()
	if n := fabric.Stats().Endpoints; n != 2 {
		t.Fatalf("%d endpoints after Leave, want 2", n)
	}
	if err := a.Send("closed", Message{}); !errors.Is(err, ErrDown) {
		t.Errorf("send to a closed endpoint: %v, want ErrDown", err)
	}
	if err := a.Send("b", Message{}); err == nil || errors.Is(err, ErrDown) {
		t.Errorf("send to a departed endpoint: %v, want unknown endpoint", err)
	}
}

func TestConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan Message, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conn := NewConn(c)
		defer conn.Close()
		m, ok := conn.Recv()
		if !ok {
			return
		}
		conn.Send(Message{Kind: "ack", ReqID: m.ReqID})
		done <- m
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(c)
	defer conn.Close()
	want := sampleMessage()
	if err := conn.Send(want); err != nil {
		t.Fatal(err)
	}
	ack, ok := conn.Recv()
	if !ok || ack.Kind != "ack" || ack.ReqID != want.ReqID {
		t.Fatalf("ack = %+v, %v", ack, ok)
	}
	got := <-done
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("server got %+v", got)
	}
}

func TestConnRecvFailsAfterClose(t *testing.T) {
	a, b := net.Pipe()
	conn := NewConn(a)
	b.Close()
	a.Close()
	if _, ok := conn.Recv(); ok {
		t.Fatal("recv on closed conn succeeded")
	}
}

func TestInboundLinkSerializesConcurrentSenders(t *testing.T) {
	// Four senders each ship a 1-second transfer to the same receiver: the
	// receiver's single inbound link must serialize them to a 4s makespan.
	v := vclock.NewVirtual()
	fabric := NewNetwork(v, 0, 1e6) // 1 MB/s
	sink := fabric.Endpoint("sink")
	payload := make([]byte, 1e6)
	for i := 0; i < 4; i++ {
		src := fabric.Endpoint(string(rune('a' + i)))
		v.Go(func() {
			src.Send("sink", Message{Kind: "partial", Payload: payload})
		})
	}
	var got int
	v.Go(func() {
		for got < 4 {
			if _, ok := sink.Recv(); ok {
				got++
			}
		}
	})
	v.Wait()
	// Each message is slightly over 1 MB on the wire → slightly over 4s.
	if v.Now() < 4*time.Second || v.Now() > 4200*time.Millisecond {
		t.Fatalf("makespan = %v, want ≈ 4s (serialized inbound link)", v.Now())
	}
}

func TestInboundLinksOfDistinctReceiversOverlap(t *testing.T) {
	v := vclock.NewVirtual()
	fabric := NewNetwork(v, 0, 1e6)
	payload := make([]byte, 1e6)
	for i := 0; i < 4; i++ {
		name := string(rune('r' + i))
		dst := fabric.Endpoint("dst-" + name)
		src := fabric.Endpoint("src-" + name)
		v.Go(func() {
			src.Send(dst.Name(), Message{Kind: "partial", Payload: payload})
		})
		v.Go(func() { dst.Recv() })
	}
	v.Wait()
	if v.Now() > 1100*time.Millisecond {
		t.Fatalf("independent links did not overlap: %v", v.Now())
	}
}

func TestWriteTimeoutOnWedgedPeer(t *testing.T) {
	// A peer that accepts the connection and then never reads: once the
	// kernel buffers fill, Send must fail with ErrWriteTimeout instead of
	// blocking the stream goroutine forever.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c // held open, never read
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Shrink the send buffer so a handful of large frames wedges the write.
	if tc, ok := raw.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	conn := NewConn(raw)
	conn.SetWriteTimeout(200 * time.Millisecond)
	big := Message{Kind: "partial", ReqID: 1, Payload: bytes.Repeat([]byte{0xAB}, 256<<10)}
	var sendErr error
	for i := 0; i < 64; i++ {
		if sendErr = conn.Send(big); sendErr != nil {
			break
		}
	}
	if !errors.Is(sendErr, ErrWriteTimeout) {
		t.Fatalf("send against wedged peer = %v, want ErrWriteTimeout", sendErr)
	}
	if c := <-accepted; c != nil {
		c.Close()
	}
}

func TestWriteTimeoutZeroIsUnbounded(t *testing.T) {
	// The default (no timeout) must keep working for well-behaved peers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan Message, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		m, _ := ReadFrame(c)
		done <- m
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := NewConn(raw)
	if err := conn.Send(Message{Kind: "command", ReqID: 9}); err != nil {
		t.Fatal(err)
	}
	if m := <-done; m.ReqID != 9 {
		t.Fatalf("peer read ReqID %d, want 9", m.ReqID)
	}
}
