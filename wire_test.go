package viracocha

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"viracocha/internal/comm"
	"viracocha/internal/wal"
)

// TestWireGolden pins every message shape the runtime writes, built with the
// typed stream keys as the runtime builds it, to the bytes the same message
// encoded to when those keys were strings in Params: the wire, WireSize, the
// fabric's prices and the WAL did not change when the keys became fields.
func TestWireGolden(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	partial := comm.Message{Kind: "partial", Command: "iso.viewer", ReqID: 7, Seq: 3, Payload: payload,
		Worker: comm.Some("w1"), Rank: comm.Some(1), Attempt: comm.Some(0)}
	tagged := comm.Message{Kind: "partial", Command: "iso.viewer", ReqID: 7, Seq: 4, Payload: payload,
		Worker: comm.Some("w2"), Rank: comm.Some(2), Attempt: comm.Some(1), Block: comm.Some(5), BSeq: comm.Some(12)}
	stamped := tagged
	stamped.SSeq = comm.Some(17) // as the bridge stamps its copy
	final := func(attempt int, kv ...string) comm.Message {
		return comm.Message{Kind: "error", Command: "iso.viewer", ReqID: 7, Final: true,
			Attempt: comm.Some(attempt), Params: Params(kv...)}
	}
	l := &streamLog{sseq: 9, attempt: 1, logged: map[int]int{4: 2}}
	recs := l.records("sess-1", 7)
	for _, c := range []struct {
		name string
		m    comm.Message
		hex  string
	}{
		{"untagged partial", partial,
			"474d5256070000007061727469616c0a00000069736f2e76696577657207000000000000000300000000030000000700" +
				"0000617474656d707401000000300400000072616e6b010000003106000000776f726b65720200000077310500000001" +
				"020304050f0b3917"},
		{"tagged partial", tagged,
			"474d5256070000007061727469616c0a00000069736f2e76696577657207000000000000000400000000050000000700" +
				"0000617474656d7074010000003105000000626c6f636b01000000350400000062736571020000003132040000007261" +
				"6e6b010000003206000000776f726b657202000000773205000000010203040588ca70a7"},
		{"stamped partial", stamped,
			"474d5256070000007061727469616c0a00000069736f2e76696577657207000000000000000400000000060000000700" +
				"0000617474656d7074010000003105000000626c6f636b01000000350400000062736571020000003132040000007261" +
				"6e6b0100000032040000007373657102000000313706000000776f726b6572020000007732050000000102030405080f" +
				"d321"},
		{"ack", comm.Message{Kind: "ack", ReqID: 7, Rank: stamped.Rank, SSeq: stamped.SSeq},
			"474d52560300000061636b0000000007000000000000000000000000020000000400000072616e6b0100000032040000" +
				"007373657102000000313700000000a1f0a170"},
		{"result", comm.Message{Kind: "result", Command: "iso.viewer", ReqID: 7, Final: true, Payload: payload,
			Worker: comm.Some("w0"), Attempt: comm.Some(1)},
			"474d525606000000726573756c740a00000069736f2e7669657765720700000000000000000000000102000000070000" +
				"00617474656d7074010000003106000000776f726b6572020000007730050000000102030405de4aca7e"},
		{"worker error final", comm.Message{Kind: "error", Command: "iso.viewer", ReqID: 7, Final: true,
			Worker: comm.Some("w0"), Attempt: comm.Some(1), Params: Params("error", "boom")},
			"474d5256050000006572726f720a00000069736f2e766965776572070000000000000000000000010300000007000000" +
				"617474656d70740100000031050000006572726f7204000000626f6f6d06000000776f726b6572020000007730000000" +
				"006cb2a17a"},
		{"error final attempt 0", final(0, "error", "core: no live workers"),
			"474d5256050000006572726f720a00000069736f2e766965776572070000000000000000000000010200000007000000" +
				"617474656d70740100000030050000006572726f7215000000636f72653a206e6f206c69766520776f726b6572730000" +
				"000082d3e552"},
		{"rejection", final(0, "error", "core: overloaded: queue full", "overloaded", "1", "retry_after_ms", "100"),
			"474d5256050000006572726f720a00000069736f2e766965776572070000000000000000000000010400000007000000" +
				"617474656d70740100000030050000006572726f721c000000636f72653a206f7665726c6f616465643a207175657565" +
				"2066756c6c0a0000006f7665726c6f6164656401000000310e00000072657472795f61667465725f6d73030000003130" +
				"3000000000b49983c2"},
		{"error final attempt 1<<30", final(1<<30, "error", "core: cancelled: memo subscriber cut off"),
			"474d5256050000006572726f720a00000069736f2e766965776572070000000000000000000000010200000007000000" +
				"617474656d70740a00000031303733373431383234050000006572726f7228000000636f72653a2063616e63656c6c65" +
				"643a206d656d6f207375627363726962657220637574206f6666000000007bffa425"},
		{"wdispatch", dispatchRecord(11, 1, 2),
			"474d525609000000776469737061746368000000000b0000000000000000000000000200000007000000617474656d70" +
				"7401000000310400000077616e74010000003200000000809b4b1a"},
		{"wspan", spanRecord(11, 1, 0, []int{0, 2}),
			"474d525605000000777370616e000000000b0000000000000000000000000300000007000000617474656d7074010000" +
				"00310400000072616e6b0100000030040000007370616e03000000302c32000000008664b841"},
		{"wmark", markRecord(11, 1, 3, 2),
			"474d525605000000776d61726b000000000b0000000000000000000000000300000007000000617474656d7074010000" +
				"003107000000626672616d65730100000032040000006974656d010000003300000000d57633d5"},
		{"wstream", recs[len(recs)-1],
			"474d5256070000007773747265616d00000000070000000000000000000000000600000007000000617474656d707401" +
				"0000003106000000626c6f636b73010000003406000000636f756e747301000000320500000066696e616c0100000030" +
				"040000007365737306000000736573732d3104000000737365710100000039000000006fa6b279"},
		{"wframe", frameRecord("sess-1", 7, comm.Encode(stamped)),
			"474d525606000000776672616d6500000000070000000000000000000000000100000004000000736573730600000073" +
				"6573732d3192000000474d5256070000007061727469616c0a00000069736f2e76696577657207000000000000000400" +
				"0000000600000007000000617474656d7074010000003105000000626c6f636b01000000350400000062736571020000" +
				"0031320400000072616e6b0100000032040000007373657102000000313706000000776f726b65720200000077320500" +
				"00000102030405080fd3216705c02c"},
	} {
		want, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := comm.Encode(c.m); !bytes.Equal(got, want) {
			t.Errorf("%s encodes to\n%x\nwant\n%x", c.name, got, want)
		}
		if f := comm.NewFrame(c.m); !bytes.Equal(bytes.Join([][]byte{f.Head, f.Payload, f.Sum}, nil), want) {
			t.Errorf("%s frames differently from its encoding", c.name)
		}
		if n := c.m.WireSize(); n != int64(len(want)) {
			t.Errorf("%s: WireSize %d, encoded %d bytes", c.name, n, len(want))
		}
	}
}

// TestWALFixtureReencodes: every record of the WAL directory recorded by
// commit cd6bec1, before the frame was split (testdata/wal-cd6bec1), every
// frame a wframe record embeds and every record of its checkpoint decode and
// re-encode byte for byte.
func TestWALFixtureReencodes(t *testing.T) {
	dir := t.TempDir()
	fixture := filepath.Join("testdata", "wal-cd6bec1")
	ents, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := wal.Recover(dir)
	if err != nil || rec.Torn || rec.CheckpointBad {
		t.Fatalf("fixture does not recover cleanly: %v %+v", err, rec)
	}
	reencodes := func(what string, data []byte) comm.Message {
		t.Helper()
		m, err := comm.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(comm.Encode(m), data) {
			t.Fatalf("%s (%s) re-encodes differently", what, m.Kind)
		}
		return m
	}
	kinds := map[string]int{}
	for i, raw := range rec.Records {
		m := reencodes(fmt.Sprintf("record %d", i), raw)
		kinds[m.Kind]++
		if m.Kind == "wframe" {
			f := reencodes("embedded frame", m.Payload)
			kinds["frame:"+f.Kind]++
		}
	}
	recs, err := comm.DecodeBatch(rec.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(comm.EncodeBatch(recs), rec.Checkpoint) {
		t.Fatal("checkpoint re-encodes differently")
	}
	if kinds["wframe"] == 0 || kinds["frame:partial"] == 0 || kinds["wmark"] == 0 {
		t.Fatalf("fixture record kinds %v: nothing typed to re-encode", kinds)
	}
	t.Logf("re-encoded %d checkpoint records and tail records %v", len(recs), kinds)
}
