package core

import (
	"testing"

	"viracocha/internal/comm"
	"viracocha/internal/vclock"
)

// TestIndexEnabledSelection pins the one place a request's extraction path
// is decided: the "index" parameter if given, else the clock kind and the
// shared DMS budget's pressure against the proxy's prefetch-shed threshold.
func TestIndexEnabledSelection(t *testing.T) {
	const limit = 1000
	for _, tc := range []struct {
		name    string
		clock   vclock.Clock
		budget  int64 // DMS MemBudget (0 = unlimited)
		reserve int64 // bytes already resident
		want    bool
	}{
		{"real clock, unlimited budget", vclock.NewReal(), 0, 0, true},
		{"real clock, budget below the shed threshold", vclock.NewReal(), limit, 899, true},
		{"real clock, budget at the shed threshold", vclock.NewReal(), limit, 900, false},
		{"virtual clock", vclock.NewVirtual(), 0, 0, false},
	} {
		cfg := ConfigFor(tc.clock, 1)
		cfg.DMS.MemBudget = tc.budget
		rt := NewRuntime(tc.clock, cfg)
		if tc.reserve > 0 && !rt.DMS.Budget().TryReserve(tc.reserve) {
			t.Fatalf("%s: could not reserve %d bytes", tc.name, tc.reserve)
		}
		proxy := rt.DMS.NewProxy("w0", nil)
		for param, want := range map[string]bool{"": tc.want, "1": true, "0": false} {
			req := comm.Message{Params: map[string]string{}}
			if param != "" {
				req.Params["index"] = param
			}
			ctx := &Ctx{rt: rt, proxy: proxy, Req: parseRequest(req, &cfg)}
			if got := ctx.IndexEnabled(); got != want {
				t.Errorf("%s, index=%q: IndexEnabled = %v, want %v", tc.name, param, got, want)
			}
		}
	}
}
