package comm

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"runtime"
	"testing"
)

// partialMessage is a streamed partial as a client receives it: the keys a
// rank and the bridge write, and n payload bytes that differ frame to frame.
func partialMessage(n int, seed byte) Message {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i*7) + seed
	}
	return Message{Kind: "partial", Command: "iso.viewer", ReqID: 3, Seq: 17,
		Worker: Some("w1"), Rank: Some(1), Attempt: Some(0), Block: Some(12), BSeq: Some(3), SSeq: Some(17),
		Payload: payload}
}

func ackMessage() Message {
	return Message{Kind: "ack", ReqID: 3, Rank: Some(1), SSeq: Some(17)}
}

// TestDecodeInternsRuntimeKeys: decoding a partial allocates its worker name
// ("w1") and its command name, and an ack nothing: neither has a Params map,
// the typed keys parse in place, and no kind is a fresh string.
func TestDecodeInternsRuntimeKeys(t *testing.T) {
	for _, tc := range []struct {
		m    Message
		want float64
	}{
		{partialMessage(35000, 0), 2},
		{ackMessage(), 0},
	} {
		data := Encode(tc.m)
		got, err := Decode(data)
		if err != nil || !reflect.DeepEqual(got, tc.m) {
			t.Fatalf("%s: decoded %+v, %v", tc.m.Kind, got, err)
		}
		if n := testing.AllocsPerRun(100, func() { Decode(data) }); n != tc.want {
			t.Errorf("decoding the %s frame allocates %v times, want %v", tc.m.Kind, n, tc.want)
		}
	}
}

// TestConnRecvMixedFrameSizes: one connection carries ack-size, 35 KB and
// beyond-1-MiB frames interleaved. Every message arrives whole; every frame up
// to 1 MiB lands in the one buffer the Conn reuses, and a larger one in an
// allocation of its own that the Conn does not keep (a payload longer than
// the kept buffer cannot live in it).
func TestConnRecvMixedFrameSizes(t *testing.T) {
	big := frameExact + 12345
	msgs := []Message{
		ackMessage(), partialMessage(35000, 1), ackMessage(), partialMessage(big, 2),
		partialMessage(35000, 3), ackMessage(), partialMessage(2*big, 4), ackMessage(), partialMessage(35000, 5),
	}
	out, in := tcpPair(t)
	go func() {
		c := NewConn(out)
		for _, m := range msgs {
			if c.Send(m) != nil {
				return
			}
		}
	}()
	c := NewConn(in)
	defer c.Close()
	var frameBuf *byte
	for i, want := range msgs {
		got, ok := c.Recv()
		if !ok {
			t.Fatalf("frame %d: receive failed", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d (%s, %d payload bytes) arrived changed", i, want.Kind, len(want.Payload))
		}
		if cap(c.fr.buf) > frameExact {
			t.Fatalf("frame %d: the connection keeps a %d-byte buffer", i, cap(c.fr.buf))
		}
		if n := len(got.Payload); n > 0 && n <= frameExact {
			if &got.Payload[0] != &c.fr.buf[int(want.WireSize())-4-n] {
				t.Fatalf("frame %d: a %d-byte payload is not in the connection's buffer", i, n)
			}
			if frameBuf != nil && &c.fr.buf[0] != frameBuf {
				t.Fatalf("frame %d: the connection replaced a buffer that fits", i)
			}
			frameBuf = &c.fr.buf[0]
		}
	}
}

// tcpPair is a connected loopback TCP pair, closed when the test ends.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
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
	t.Cleanup(func() { out.Close(); in.Close() })
	return out, in
}

// loopConn is a connection whose peer sends one frame's bytes over and over.
type loopConn struct {
	net.Conn
	stream []byte
	off    int
}

func (l *loopConn) Read(p []byte) (int, error) {
	n := copy(p, l.stream[l.off:])
	l.off = (l.off + n) % len(l.stream)
	return n, nil
}

// TestConnRecvAllocatesOnlyParams: in the steady state, receiving a 35 KB
// partial allocates what decoding its fields does — the worker and command
// names — and nothing of its payload's size.
func TestConnRecvAllocatesOnlyParams(t *testing.T) {
	m := partialMessage(35000, 0)
	data := Encode(m)
	stream := append(binary.LittleEndian.AppendUint32(nil, uint32(len(data))), data...)
	c := NewConn(&loopConn{stream: stream})
	if got, ok := c.Recv(); !ok || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("the first frame did not arrive whole")
	}
	want := testing.AllocsPerRun(100, func() { Decode(data) })
	allocs := testing.AllocsPerRun(100, func() { c.Recv() })
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c.Recv()
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Recv of a %d-byte frame: %.0f allocations, %d bytes", len(data), allocs, bytesPer)
	if allocs > want {
		t.Errorf("Recv allocates %v times per frame, decoding the frame's fields %v", allocs, want)
	}
	if bytesPer > 1024 {
		t.Errorf("Recv allocates %d bytes per %d-byte frame", bytesPer, len(data))
	}
}
