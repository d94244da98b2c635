package core

import (
	"testing"

	"viracocha/internal/comm"
	"viracocha/internal/vclock"
)

// TestParseRequestKeys pins every framework key of a client command: its
// default comes from the Config — or, for the recovery keys, is a constant —
// and the request's own value overrides it.
func TestParseRequestKeys(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Memo = true
	cfg.Overload.StreamWindow = 16
	parse := func(cfg *Config, kv ...string) *Request {
		p := map[string]string{}
		for i := 0; i+1 < len(kv); i += 2 {
			p[kv[i]] = kv[i+1]
		}
		return parseRequest(comm.Message{Kind: "command", Command: "iso.viewer", ReqID: 7, Params: p}, cfg)
	}
	for _, tc := range []struct {
		key, val string
		field    func(*Request) any
		def, set any
	}{
		{"client", "client3", func(r *Request) any { return r.Client }, "client", "client3"},
		{"session", "sess-9", func(r *Request) any { return r.Session }, "client", "sess-9"},
		{"dataset", "engine", func(r *Request) any { return r.Dataset }, "", "engine"},
		{"step", "5", func(r *Request) any { return r.Step }, 0, 5},
		{"workers", "3", func(r *Request) any { return r.Workers }, 1, 3},
		{"retries", "0", func(r *Request) any { return r.Retries }, 2, 0},
		{"redistribute", "1", func(r *Request) any { return r.Journal }, false, true},
		{"memo", "0", func(r *Request) any { return r.Memo }, true, false},
		{"stream_window", "4", func(r *Request) any { return r.StreamWindow }, 16, 4},
		{"index", "1", func(r *Request) any { return r.Index }, indexAuto, 1},
		{"progress", "1", func(r *Request) any { return r.Progress }, false, true},
	} {
		if got := tc.field(parse(&cfg)); got != tc.def {
			t.Errorf("%s: default %v, want %v", tc.key, got, tc.def)
		}
		if got := tc.field(parse(&cfg, tc.key, tc.val)); got != tc.set {
			t.Errorf("%s=%s: got %v, want %v", tc.key, tc.val, got, tc.set)
		}
	}

	// The Config supplies the defaults: the zero policy bits of DefaultConfig.
	if r := parse(&Config{FT: DefaultFTConfig()}); r.Memo || r.Journal || r.Retries != 2 || r.StreamWindow != 0 {
		t.Errorf("DefaultFTConfig defaults: %+v", r)
	}
	// An in-process client has no session of its own: it is its endpoint.
	if r := parse(&cfg, "client", "client3"); r.Session != "client3" {
		t.Errorf("session falls back to %q, want the client's endpoint", r.Session)
	}
	if r := parse(&cfg, "index", "0"); r.Index != 0 {
		t.Errorf("index=0 pins %d, want 0", r.Index)
	}
	// A span is the scheduler's recovery annotation, never the client's.
	if r := parse(&cfg, "span", "1,2"); r.HasSpan || r.Span != nil || r.Attempt != 0 {
		t.Errorf("client span was taken as a recovery plan: %+v", r)
	}
	if r := parse(&cfg); r.ReqID != 7 || r.Command != "iso.viewer" || r.MemoKey != "iso.viewer" {
		t.Errorf("identity: %+v", r)
	}
	if r := parse(&cfg, "memo", "0"); r.MemoKey != "" {
		t.Errorf("memo-off request got a memo key %q", r.MemoKey)
	}
}

// TestSmuggledSpanIgnoredOnFreshDispatch: a "span" a client sends must not
// reach the ranks of a fresh dispatch, or every rank would run that one item.
func TestSmuggledSpanIgnoredOnFreshDispatch(t *testing.T) {
	res, err, st, _, _ := runSpanScenario(t, 4, nil, nil, "test.spanstream",
		map[string]string{"workers": "4", "items": "8", "span": "0"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partials != 8 || res.Merged.NumTriangles() != 8 || st.BlocksRecomputed != 0 {
		t.Fatalf("partials %d, triangles %d, recomputed %d: want 8, 8, 0",
			res.Partials, res.Merged.NumTriangles(), st.BlocksRecomputed)
	}
}

// TestMemoHitFramesEqualStreams: every record — a memo hit, the subscriber
// that missed, its producer and a direct request — files Frames equal to
// Streams; a forwarder once counted its final as a frame too.
func TestMemoHitFramesEqualStreams(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 4, nil, memoCfg)
	var hit uint64
	v.Go(func() {
		cl := NewClient(rt)
		direct := spanParams()
		direct["memo"] = "0"
		for i, p := range []map[string]string{spanParams(), spanParams(), direct} {
			res, err := cl.Run("test.spanstream", p)
			if err != nil {
				t.Error(err)
				continue
			}
			if i == 1 {
				hit = res.ReqID
			}
		}
		rt.Shutdown()
	})
	v.Wait()
	if st, ok := rt.Sched.Stats(hit); !ok || !st.MemoHit {
		t.Fatalf("hit record %+v (ok=%v), want MemoHit", st, ok)
	}
	all := rt.Sched.AllStats()
	if len(all) != 4 {
		t.Fatalf("%d records, want 4", len(all))
	}
	for _, st := range all {
		if st.Frames != st.Streams || st.Streams != 8 {
			t.Errorf("req %d (memo hit %v): frames %d, streams %d, want 8 and 8", st.ReqID, st.MemoHit, st.Frames, st.Streams)
		}
	}
}
