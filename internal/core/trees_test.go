package core

import (
	"testing"

	"viracocha/internal/comm"
	"viracocha/internal/vclock"
)

// TestCachesTreesFollowsClockKind pins the one place the viewer's tree path
// is decided: the clock kind alone. A shared DMS budget at the prefetch-shed
// threshold changes nothing.
func TestCachesTreesFollowsClockKind(t *testing.T) {
	const limit = 1000
	for _, tc := range []struct {
		name    string
		clock   vclock.Clock
		budget  int64 // DMS MemBudget (0 = unlimited)
		reserve int64 // bytes already resident
		want    bool
	}{
		{"real clock, unlimited budget", vclock.NewReal(), 0, 0, true},
		{"real clock, budget at the shed threshold", vclock.NewReal(), limit, 900, true},
		{"virtual clock", vclock.NewVirtual(), 0, 0, false},
		{"virtual clock, budget at the shed threshold", vclock.NewVirtual(), limit, 900, false},
	} {
		cfg := ConfigFor(tc.clock, 1)
		cfg.DMS.MemBudget = tc.budget
		rt := NewRuntime(tc.clock, cfg)
		if tc.reserve > 0 && !rt.DMS.Budget().TryReserve(tc.reserve) {
			t.Fatalf("%s: could not reserve %d bytes", tc.name, tc.reserve)
		}
		ctx := &Ctx{rt: rt, proxy: rt.DMS.NewProxy("w0", nil), Req: parseRequest(comm.Message{}, &cfg)}
		if got := ctx.CachesTrees(); got != tc.want {
			t.Errorf("%s: CachesTrees = %v, want %v", tc.name, got, tc.want)
		}
	}
}
