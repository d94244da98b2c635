package viracocha

import (
	"bytes"
	"testing"
	"time"

	"viracocha/internal/core"
	"viracocha/internal/dms"
	"viracocha/internal/vclock"
)

// TestPricesFollowClockKind: the modelled compute, read and fabric prices
// exist to advance the virtual clock; a real-clock system charges none of
// them, and a virtual one charges exactly what the recorded experiments were
// run with.
func TestPricesFollowClockKind(t *testing.T) {
	realRT := New(Options{}).Runtime
	if realRT.Cost != (core.CostModel{}) {
		t.Errorf("real clock: compute prices = %+v, want none", realRT.Cost)
	}
	if realRT.DMS.Config.Prices != (dms.Prices{}) {
		t.Errorf("real clock: read prices = %+v, want none", realRT.DMS.Config.Prices)
	}

	virtRT := New(Options{VirtualTime: true}).Runtime
	wantCost := core.CostModel{
		PerIsoCell:       550 * time.Nanosecond,
		PerTriangle:      2 * time.Microsecond,
		PerLambda2Node:   5500 * time.Nanosecond,
		PerBSPCell:       300 * time.Nanosecond,
		PerVelocityEval:  9 * time.Microsecond,
		PerMergeTriangle: 600 * time.Nanosecond,
	}
	if virtRT.Cost != wantCost {
		t.Errorf("virtual clock: compute prices = %+v, want %+v", virtRT.Cost, wantCost)
	}
	wantRead := dms.Prices{
		DecideCost:         200 * time.Microsecond,
		NameCost:           200 * time.Microsecond,
		PeerLatency:        100 * time.Microsecond,
		PeerBandwidth:      400e6,
		LocalDiskBandwidth: 80e6,
	}
	if virtRT.DMS.Config.Prices != wantRead {
		t.Errorf("virtual clock: read prices = %+v, want %+v", virtRT.DMS.Config.Prices, wantRead)
	}

	if virtRT.Net.Latency != 50*time.Microsecond || virtRT.Net.Bandwidth != 1e9 {
		t.Errorf("virtual clock: fabric price = %v + bytes/%v, want 50µs + bytes/1e9", virtRT.Net.Latency, virtRT.Net.Bandwidth)
	}
	if realRT.Net.Latency != 0 || realRT.Net.Bandwidth != 0 {
		t.Errorf("real clock: fabric price = %v + bytes/%v, want none", realRT.Net.Latency, realRT.Net.Bandwidth)
	}
	realCfg, virtCfg := core.ConfigFor(vclock.NewReal(), 2), core.ConfigFor(vclock.NewVirtual(), 2)
	if realCfg.NetLatency != 0 || realCfg.NetBandwidth != 0 {
		t.Errorf("real clock: configured fabric price = %v + bytes/%v, want none", realCfg.NetLatency, realCfg.NetBandwidth)
	}
	if virtCfg.NetLatency != 50*time.Microsecond || virtCfg.NetBandwidth != 1e9 {
		t.Errorf("virtual clock: configured fabric price = %v + bytes/%v, want 50µs + bytes/1e9", virtCfg.NetLatency, virtCfg.NetBandwidth)
	}
}

// rankStreams is how many partials the ranks of sys streamed themselves:
// records of real work groups, not the memo's synthetic subscriber records.
func rankStreams(sys *System) int64 {
	var n int64
	for _, st := range sys.AllStats() {
		if st.Workers > 0 {
			n += int64(st.Streams)
		}
	}
	return n
}

// TestFabricChargesWhoTheClockSays counts, on the fabric itself, who paid:
// under the virtual clock every message; under the real clock nobody — not
// the partials the ranks streamed under the server's stream window, not the
// commands, starts, journal marks, gathers and finals around them, and not one
// message of the memo forwarder's replays. A fault-free real-clock request
// sleeps nowhere on the fabric: the viewer's acks pace the ranks.
func TestFabricChargesWhoTheClockSays(t *testing.T) {
	virt := New(Options{Workers: 2, VirtualTime: true})
	if _, err := virt.AddDataset("engine", 1); err != nil {
		t.Fatal(err)
	}
	virt.Session(func(c *Client) {
		if _, err := c.Run("iso.viewer", streamParams()); err != nil {
			t.Error(err)
		}
	})
	if st := virt.Runtime.Net.Stats(); st.Messages == 0 || st.Priced != st.Messages {
		t.Errorf("virtual clock: %d of %d fabric messages were priced, want all", st.Priced, st.Messages)
	}

	ov := DefaultOverloadConfig()
	sys, ln := serveSystem(t, Options{Workers: 2, Overload: &ov}, "engine", 1)
	defer ln.Close()
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	memo := streamParams()
	memo["memo"] = "1"
	var streamed [3]int // a direct run, a memo miss (relayed and forwarded), a memo hit (replayed)
	for i, p := range []map[string]string{streamParams(), memo, memo} {
		if _, err := rc.Run("iso.viewer", p, func(int, *Mesh) { streamed[i]++ }); err != nil {
			t.Fatal(err)
		}
		if st := sys.Runtime.Net.Stats(); st.Priced != 0 {
			t.Errorf("real clock, %s: %d fabric messages were priced, want none",
				[...]string{"direct run", "memo miss", "memo hit"}[i], st.Priced)
		}
	}
	if err := rc.Drain(); err != nil { // returns once every rank's wdone has filed its record
		t.Fatal(err)
	}
	if ms := sys.MemoStats(); ms.Hits != 1 || ms.Misses != 1 {
		t.Fatalf("memo hits/misses = %d/%d, want 1/1: the replay path was not exercised", ms.Hits, ms.Misses)
	}
	st, byRanks := sys.Runtime.Net.Stats(), rankStreams(sys)
	if byRanks != int64(streamed[0]+streamed[1]) || streamed[2] != streamed[1] || byRanks == 0 {
		t.Fatalf("ranks streamed %d partials, the client received %v", byRanks, streamed)
	}
	if want := byRanks + int64(streamed[1]+streamed[2]); st.Priced != 0 || st.Messages < want {
		t.Errorf("real clock: %d of %d fabric messages were priced, want none of at least the %d partials streamed and forwarded",
			st.Priced, st.Messages, want)
	}
}

// TestIndexedPathIsSelected serves one real-clock system over loopback and
// checks the selection end to end: with no "index" parameter the viewer takes
// the cached-tree path and returns the bytes the paper's uncached algorithm
// returns; with the shared DMS budget held at the shed threshold it returns
// those bytes again and leaves no derived entity behind. The vortex commands
// take one path whatever "index" says, and cache no derived entity on any.
func TestIndexedPathIsSelected(t *testing.T) {
	requests := []struct {
		cmd    string
		params map[string]string
		caches bool // the default path caches derived entities
	}{
		{"iso.viewer", streamParams(), true},
		{"vortex.streamed", Params("dataset", "engine", "workers", "2", "lambda2", "-1000", "redistribute", "1"), false},
	}
	run := func(rc *RemoteClient, cmd string, params map[string]string, index string) []byte {
		t.Helper()
		p := Params()
		for k, v := range params {
			p[k] = v
		}
		if index != "" {
			p["index"] = index
		}
		m, err := rc.Run(cmd, p, nil)
		if err != nil {
			t.Fatalf("%s index=%q: %v", cmd, index, err)
		}
		if m.NumTriangles() == 0 {
			t.Fatalf("%s index=%q: no triangles — comparison degenerate", cmd, index)
		}
		return m.EncodeBinary()
	}
	serve := func(opts Options) (*System, *RemoteClient) {
		t.Helper()
		sys, ln := serveSystem(t, opts, "engine", 1)
		t.Cleanup(func() { ln.Close() })
		rc, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rc.Close() })
		return sys, rc
	}
	derivedPuts := func(sys *System) int64 {
		_, ps := sys.Runtime.DMS.AggregateStats()
		return ps.DerivedPuts
	}

	sys, rc := serve(Options{Workers: 2})
	refs := make([][]byte, len(requests))
	for i, r := range requests {
		refs[i] = run(rc, r.cmd, r.params, "0")
		if n := derivedPuts(sys); n != 0 {
			t.Fatalf("%s index=0 cached %d derived entities", r.cmd, n)
		}
	}
	for i, r := range requests {
		before := derivedPuts(sys)
		if got := run(rc, r.cmd, r.params, ""); !bytes.Equal(got, refs[i]) {
			t.Errorf("%s: default path differs from index=0", r.cmd)
		}
		if cached := derivedPuts(sys) != before; cached != r.caches {
			t.Errorf("%s: default path cached derived entities: %v, want %v", r.cmd, cached, r.caches)
		}
		if !r.caches {
			run(rc, r.cmd, r.params, "1")
			if n := derivedPuts(sys); n != before {
				t.Errorf("%s index=1 cached %d derived entities", r.cmd, n-before)
			}
		}
	}

	// A budget of eleven of the step's 23 blocks: the un-indexed warm-up
	// fills it to within one block (a twelfth) of the limit, so from then on
	// every rank starts at or above the shed threshold.
	ov := DefaultOverloadConfig()
	ov.MemBudget = 256 << 10
	tight, rc2 := serve(Options{Workers: 2, Overload: &ov})
	for i, r := range requests {
		run(rc2, r.cmd, r.params, "0")
		if b := tight.DMSBudget(); float64(b.Used) < 0.9*float64(b.Limit) {
			t.Fatalf("budget at %d of %d bytes after the warm-up: pressure below the shed threshold, test degenerate", b.Used, b.Limit)
		}
		if got := run(rc2, r.cmd, r.params, ""); !bytes.Equal(got, refs[i]) {
			t.Errorf("%s under budget pressure: default path differs from index=0", r.cmd)
		}
		if n := derivedPuts(tight); n != 0 {
			t.Errorf("%s under budget pressure: default path cached %d derived entities", r.cmd, n)
		}
	}
}
