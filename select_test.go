package viracocha

import (
	"bytes"
	"testing"
	"time"

	"viracocha/internal/core"
	"viracocha/internal/dms"
)

// TestPricesFollowClockKind: the modelled compute and read prices exist to
// advance the virtual clock; a real-clock system charges none of them, and a
// virtual one charges exactly what the recorded experiments were run with.
// The fabric price is the same under both (ROADMAP item 3).
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
		PerIndexNode:     70 * time.Nanosecond,
		PerGradNode:      1800 * time.Nanosecond,
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

	for name, rt := range map[string]*core.Runtime{"real": realRT, "virtual": virtRT} {
		if rt.Net.Latency != 50*time.Microsecond || rt.Net.Bandwidth != 1e9 {
			t.Errorf("%s clock: fabric price = %v + bytes/%v, want 50µs + bytes/1e9", name, rt.Net.Latency, rt.Net.Bandwidth)
		}
	}
}

// TestIndexedPathIsSelected serves one real-clock system over loopback and
// checks the selection end to end: with no "index" parameter the runtime takes
// the indexed path and returns the bytes the paper's un-indexed algorithm
// returns; with the shared DMS budget held at the shed threshold it returns
// those bytes again and leaves no derived entity behind.
func TestIndexedPathIsSelected(t *testing.T) {
	requests := []struct {
		cmd    string
		params map[string]string
	}{
		{"iso.viewer", streamParams()},
		{"vortex.streamed", Params("dataset", "engine", "workers", "2", "lambda2", "-1000", "redistribute", "1")},
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
		if derivedPuts(sys) == before {
			t.Errorf("%s: default path cached no derived entity — the indexed path was not taken", r.cmd)
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
