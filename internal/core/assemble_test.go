package core

import (
	"bytes"
	"errors"
	"testing"

	"viracocha/internal/comm"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

// tri is a one-triangle mesh identified by x.
func tri(x float64) *mesh.Mesh {
	m := &mesh.Mesh{}
	a := m.AddVertex(mathx.Vec3{X: x})
	b := m.AddVertex(mathx.Vec3{X: x + 0.5})
	c := m.AddVertex(mathx.Vec3{X: x, Y: 1})
	m.AddTriangle(a, b, c)
	return m
}

func untaggedPacket(attempt, rank, seq int, x float64) comm.Message {
	return comm.Message{Kind: "partial", ReqID: 1, Seq: seq, Payload: tri(x).EncodeBinary(),
		Rank: comm.Some(rank), Attempt: comm.Some(attempt)}
}

func taggedPacket(attempt, block, bseq int, x float64) comm.Message {
	m := untaggedPacket(attempt, 0, 1, x) // redistribution restarts seq: only the tag is stable
	m.Block, m.BSeq = comm.Some(block), comm.Some(bseq)
	return m
}

func resultFinal(attempt int, x float64) comm.Message {
	return comm.Message{Kind: "result", ReqID: 1, Final: true, Payload: tri(x).EncodeBinary(),
		Attempt: comm.Some(attempt)}
}

func errorFinal(attempt int, kv ...string) comm.Message {
	m := comm.Message{Kind: "error", ReqID: 1, Final: true,
		Attempt: comm.Some(attempt), Params: map[string]string{}}
	for i := 0; i+1 < len(kv); i += 2 {
		m.Params[kv[i]] = kv[i+1]
	}
	return m
}

// TestStreamAssembler feeds the one assembly rule the packet sequences its
// three hand-copied predecessors (Collect, RemoteClient.runOnce,
// canonicalMemoLog) each handled, and checks the merged bytes, the counters,
// the error mapping, and — through canonicalMemoLog — which packets a memo
// replay keeps.
func TestStreamAssembler(t *testing.T) {
	cases := []struct {
		name       string
		in         []comm.Message
		merged     []float64 // tri ids in merged order
		partials   int
		duplicates int
		attempt    int
		errIs      error
		errText    string
		kept       []int // indices of in that canonicalMemoLog keeps
	}{
		{
			name: "untagged in rank seq order",
			in: []comm.Message{untaggedPacket(0, 0, 1, 1), untaggedPacket(0, 1, 1, 2),
				untaggedPacket(0, 0, 2, 3), resultFinal(0, 9)},
			merged: []float64{1, 3, 2, 9}, partials: 3, kept: []int{0, 1, 2, 3},
		},
		{
			name: "duplicated untagged",
			in: []comm.Message{untaggedPacket(0, 0, 1, 1), untaggedPacket(0, 0, 1, 1),
				untaggedPacket(0, 1, 1, 2), resultFinal(0, 9)},
			merged: []float64{1, 2, 9}, partials: 2, duplicates: 1, kept: []int{0, 2, 3},
		},
		{
			name: "tagged shuffled and duplicated",
			in: []comm.Message{taggedPacket(0, 2, 0, 20), taggedPacket(0, 0, 1, 1), taggedPacket(0, 0, 0, 0),
				taggedPacket(0, 2, 0, 20), resultFinal(0, 9)},
			merged: []float64{0, 1, 20, 9}, partials: 3, duplicates: 1, kept: []int{0, 1, 2, 4},
		},
		{
			name:   "stale attempt",
			in:     []comm.Message{untaggedPacket(1, 0, 1, 1), untaggedPacket(0, 0, 2, 5), resultFinal(1, 9)},
			merged: []float64{1, 9}, partials: 1, duplicates: 1, attempt: 1, kept: []int{0, 2},
		},
		{
			name: "attempt bump mid-stream",
			in: []comm.Message{untaggedPacket(0, 0, 1, 1), taggedPacket(0, 0, 0, 2),
				untaggedPacket(1, 0, 1, 3), resultFinal(1, 9)},
			merged: []float64{3, 9}, partials: 1, duplicates: 2, attempt: 1, kept: []int{2, 3},
		},
		{
			name: "tagged and untagged mixed",
			in: []comm.Message{taggedPacket(0, 1, 0, 11), untaggedPacket(0, 0, 1, 1), taggedPacket(0, 0, 0, 10),
				untaggedPacket(0, 0, 2, 2), resultFinal(0, 9)},
			merged: []float64{1, 2, 10, 11, 9}, partials: 4, kept: []int{0, 1, 2, 3, 4},
		},
		{
			name:   "error final after tagged partials",
			in:     []comm.Message{taggedPacket(0, 1, 0, 11), taggedPacket(0, 0, 0, 10), errorFinal(0, "error", "boom")},
			merged: []float64{10, 11}, partials: 2, errText: "core: remote error: boom", kept: []int{0, 1, 2},
		},
		{
			name:  "overloaded",
			in:    []comm.Message{errorFinal(0, "error", "queue full", "overloaded", "1", "retry_after_ms", "40")},
			errIs: ErrOverloaded, errText: "queue full (retry after 40ms)", kept: []int{0},
		},
		{
			name:  "draining",
			in:    []comm.Message{errorFinal(0, "error", "bouncing", "draining", "1", "retry_after_ms", "40")},
			errIs: ErrDraining, errText: "bouncing (retry after 40ms)", kept: []int{0},
		},
		{
			name: "memo cut-off final supersedes every attempt",
			in: []comm.Message{untaggedPacket(0, 0, 1, 1),
				errorFinal(1<<30, "error", "core: cancelled: memo subscriber cut off")},
			duplicates: 1, attempt: 1 << 30, errText: "core: remote error: core: cancelled: memo subscriber cut off", kept: []int{1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			asm := NewStreamAssembler()
			for i, m := range tc.in {
				if asm.Done {
					t.Fatalf("done before message %d", i)
				}
				if _, _, err := asm.Add(m); err != nil {
					t.Fatalf("message %d: %v", i, err)
				}
			}
			if !asm.Done {
				t.Fatal("not done after the final message")
			}
			want := &mesh.Mesh{}
			for _, x := range tc.merged {
				want.Append(tri(x))
			}
			if !bytes.Equal(asm.Merged.EncodeBinary(), want.EncodeBinary()) {
				t.Errorf("merged = %s, want %s", meshSignature(asm.Merged), meshSignature(want))
			}
			if asm.Partials != tc.partials || asm.Duplicates != tc.duplicates || asm.Attempt != tc.attempt {
				t.Errorf("partials/duplicates/attempt = %d/%d/%d, want %d/%d/%d",
					asm.Partials, asm.Duplicates, asm.Attempt, tc.partials, tc.duplicates, tc.attempt)
			}
			switch {
			case tc.errText == "":
				if asm.Err != nil {
					t.Errorf("err = %v, want none", asm.Err)
				}
			case asm.Err == nil || asm.Err.Error() != tc.errText:
				t.Errorf("err = %v, want %q", asm.Err, tc.errText)
			case tc.errIs != nil && !errors.Is(asm.Err, tc.errIs):
				t.Errorf("err = %#v, want one that is %v", asm.Err, tc.errIs)
			}

			log, size := canonicalMemoLog(tc.in)
			var wantSize int64
			for _, i := range tc.kept {
				wantSize += tc.in[i].WireSize()
			}
			if len(log) != len(tc.kept) || size != wantSize {
				t.Fatalf("memo log keeps %d packets (%d bytes), want %d (%d bytes)",
					len(log), size, len(tc.kept), wantSize)
			}
			for j, i := range tc.kept {
				if !bytes.Equal(comm.Encode(log[j]), comm.Encode(tc.in[i])) {
					t.Errorf("memo log packet %d is not input packet %d", j, i)
				}
			}
		})
	}
}

func TestStreamAssemblerRejectsCorruptInput(t *testing.T) {
	// A block tag that is not an integer never reaches an assembler: the
	// frame carrying it is rejected where it is decoded.
	bad := untaggedPacket(0, 0, 1, 1)
	bad.Params = map[string]string{"block": "x"}
	if _, err := comm.Decode(comm.Encode(bad)); err == nil {
		t.Error("bad block tag accepted")
	}
	torn := untaggedPacket(0, 0, 1, 1)
	torn.Payload = torn.Payload[:len(torn.Payload)-1]
	if _, _, err := NewStreamAssembler().Add(torn); err == nil {
		t.Error("truncated partial accepted")
	}
}
