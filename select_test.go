package viracocha

import (
	"bytes"
	"testing"

	"viracocha/internal/bench"
	"viracocha/internal/core"
	"viracocha/internal/dataset"
	"viracocha/internal/dms"
)

// TestPricesFollowClockKind: the modelled compute, fabric and read prices
// exist to advance the virtual clock. A real-clock system charges none of
// them; a virtual one and the figures' environment (bench.NewEnv) both charge
// core.Paper(), the one calibration.
func TestPricesFollowClockKind(t *testing.T) {
	paper := core.Paper()
	if paper.PerIsoCell == 0 || paper.NetLatency == 0 || paper.Read.DecideCost == 0 {
		t.Fatalf("core.Paper() leaves a price family unpriced: %+v", paper)
	}
	env := bench.NewEnv(bench.EnvConfig{DS: dataset.Tiny(), Workers: 1})
	env.Session(func(*core.Client) {})
	for _, tc := range []struct {
		name string
		rt   *core.Runtime
		want core.Model
	}{
		{"real clock", New(Options{}).Runtime, core.Model{}},
		{"virtual clock", New(Options{VirtualTime: true}).Runtime, paper},
		{"bench.NewEnv", env.RT, paper},
	} {
		rt := tc.rt
		if rt.Model != tc.want {
			t.Errorf("%s: model = %+v, want %+v", tc.name, rt.Model, tc.want)
		}
		if rt.DMS.Prices != tc.want.Read {
			t.Errorf("%s: read prices = %+v, want %+v", tc.name, rt.DMS.Prices, tc.want.Read)
		}
		if rt.Net.Latency != tc.want.NetLatency || rt.Net.Bandwidth != tc.want.NetBandwidth {
			t.Errorf("%s: fabric price = %v + bytes/%v, want %v + bytes/%v", tc.name,
				rt.Net.Latency, rt.Net.Bandwidth, tc.want.NetLatency, tc.want.NetBandwidth)
		}
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
// checks the tree path end to end against a virtual-clock system, which
// rebuilds every tree as the paper's algorithm does: the viewer caches its
// BSP trees, serves the second request from them, and returns the rebuilt
// bytes both times; the vortex commands cache no derived entity. With the
// shared DMS budget held at the prefetch-shed threshold the bytes are the
// same again and the budget is never exceeded: there the DMS refuses a tree
// rather than evict a demand block for it.
func TestIndexedPathIsSelected(t *testing.T) {
	requests := []struct {
		cmd    string
		params map[string]string
		caches bool // the real clock's path caches derived entities
	}{
		{"iso.viewer", streamParams(), true},
		{"vortex.streamed", Params("dataset", "engine", "workers", "2", "lambda2", "-1000", "redistribute", "1"), false},
	}
	refs := make([][]byte, len(requests))
	virt := New(Options{Workers: 2, VirtualTime: true})
	if _, err := virt.AddDataset("engine", 1); err != nil {
		t.Fatal(err)
	}
	virt.Session(func(c *Client) {
		for i, r := range requests {
			res, err := c.Run(r.cmd, r.params)
			if err != nil {
				t.Fatalf("%s: %v", r.cmd, err)
			}
			if res.Merged.NumTriangles() == 0 {
				t.Fatalf("%s: no triangles — comparison degenerate", r.cmd)
			}
			refs[i] = res.Merged.EncodeBinary()
		}
	})
	if _, ps := virt.Runtime.DMS.AggregateStats(); ps.DerivedPuts != 0 {
		t.Fatalf("virtual clock cached %d derived entities", ps.DerivedPuts)
	}

	run := func(rc *RemoteClient, cmd string, params map[string]string) []byte {
		t.Helper()
		m, err := rc.Run(cmd, params, nil)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
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
	derived := func(sys *System) dms.ProxyStats {
		_, ps := sys.Runtime.DMS.AggregateStats()
		return ps
	}

	sys, rc := serve(Options{Workers: 2})
	for i, r := range requests {
		before := derived(sys)
		if got := run(rc, r.cmd, r.params); !bytes.Equal(got, refs[i]) {
			t.Errorf("%s: cached path differs from the rebuilding one", r.cmd)
		}
		cold := derived(sys)
		if cached := cold.DerivedPuts != before.DerivedPuts; cached != r.caches {
			t.Errorf("%s: cached derived entities: %v, want %v", r.cmd, cached, r.caches)
		}
		if got := run(rc, r.cmd, r.params); !bytes.Equal(got, refs[i]) {
			t.Errorf("%s, warm: cached path differs from the rebuilding one", r.cmd)
		}
		if warm := derived(sys); warm.DerivedMisses != cold.DerivedMisses || warm.DerivedPuts != cold.DerivedPuts {
			t.Errorf("%s, warm: %d tree lookups missed, want none", r.cmd, warm.DerivedMisses-cold.DerivedMisses)
		}
	}

	// A budget of eleven of the step's 23 blocks: the warm-up fills it to
	// within one block (a twelfth) of the limit, so from then on every rank
	// starts at or above the shed threshold.
	ov := DefaultOverloadConfig()
	ov.MemBudget = 256 << 10
	tight, rc2 := serve(Options{Workers: 2, Overload: &ov})
	for i, r := range requests {
		run(rc2, r.cmd, r.params)
		if b := tight.DMSBudget(); float64(b.Used) < 0.9*float64(b.Limit) {
			t.Fatalf("budget at %d of %d bytes after the warm-up: pressure below the shed threshold, test degenerate", b.Used, b.Limit)
		}
		if got := run(rc2, r.cmd, r.params); !bytes.Equal(got, refs[i]) {
			t.Errorf("%s under budget pressure: cached path differs from the rebuilding one", r.cmd)
		}
		if b := tight.DMSBudget(); b.Peak > b.Limit {
			t.Errorf("%s under budget pressure: budget peaked at %d of %d bytes", r.cmd, b.Peak, b.Limit)
		}
	}
}
