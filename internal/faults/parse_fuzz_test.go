package faults

import (
	"runtime"
	"testing"
	"time"
)

// ruleCount is the number of rules a plan holds, over every rule kind.
func ruleCount(p *Plan) int {
	return len(p.Links) + len(p.Crashes) + len(p.Reads) + len(p.Corrupts) +
		len(p.Consumers) + len(p.Disconnects) + len(p.Hangs) + len(p.Recovers) +
		len(p.Flaps) + len(p.Torns) + len(p.FsyncFails) + len(p.Paces)
}

// checkAccepted asserts what an accepted rule may leave in a fresh plan:
// exactly one rule, probabilities in [0,1], no negative duration, and the
// counts each kind documents.
func checkAccepted(t *testing.T, spec string, p *Plan) {
	t.Helper()
	if n := ruleCount(p); n != 1 {
		t.Fatalf("ParseRule(%q) accepted, plan holds %d rules, want 1", spec, n)
	}
	for _, r := range p.Links {
		for _, prob := range []float64{r.Drop, r.Duplicate} {
			if !(prob >= 0 && prob <= 1) {
				t.Fatalf("ParseRule(%q) accepted probability %v", spec, prob)
			}
		}
		if r.Delay < 0 {
			t.Fatalf("ParseRule(%q) accepted negative delay %v", spec, r.Delay)
		}
	}
	for _, m := range []map[string]time.Duration{p.Crashes, p.Recovers, p.Consumers, p.Paces} {
		for node, d := range m {
			if d < 0 {
				t.Fatalf("ParseRule(%q) accepted negative duration %v for %q", spec, d, node)
			}
		}
	}
	for node, d := range p.Flaps {
		if d <= 0 {
			t.Fatalf("ParseRule(%q) accepted flap period %v for %q", spec, d, node)
		}
	}
	for _, r := range p.Disconnects {
		if r.After < 0 {
			t.Fatalf("ParseRule(%q) accepted frame count %d", spec, r.After)
		}
	}
	for _, r := range p.Torns {
		if r.N < 1 {
			t.Fatalf("ParseRule(%q) accepted append count %d", spec, r.N)
		}
	}
}

// FuzzParseRule drives the -fault rule parser with arbitrary text, seeded
// from the rules the README and the server's flag help show. It must never
// panic; an accepted rule must hold sane values (checkAccepted); and neither
// parsing a rule nor compiling the plan may allocate in proportion to a
// count or probability the rule carries — only to the rule's own length.
func FuzzParseRule(f *testing.F) {
	for _, spec := range []string{
		"crash:w1@3s", "crash:w1@1s", "recover:w1@5s", "flap:w2:2s", "flap:w2:700ms",
		"drop:w1>scheduler:wdone:1", "dup:*>client:partial:0.5", "delay:w0>w1:wpartial:250ms",
		"read:tiny:-1:-1:2", "corrupt:engine:0:3:1", "slow:client1@2s",
		"discon:sess-1:5", "hang:sess-1", "torn:*:5", "torn:/var/wal/seg-0001:3", "fsyncfail:*",
		"pace:engine@150ms", "pace:*@4ms", "pace:@1s", "pace:tiny@-1ms",
		"drop:w1>s:wdone:NaN", "discon:s:9223372036854775807", "read:d:0:0:-9223372036854775808",
	} {
		f.Add(spec)
	}
	var ms runtime.MemStats
	f.Fuzz(func(t *testing.T, spec string) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var p Plan
		err := p.ParseRule(spec)
		New(&p)
		runtime.ReadMemStats(&ms)
		// The error quotes the rule, and %q spells an invalid byte in four,
		// so the bound is linear in the length with room for that.
		if grew := ms.TotalAlloc - before; grew > 64<<10+64*uint64(len(spec)) {
			t.Fatalf("ParseRule(%q) and New allocated %d bytes", spec, grew)
		}
		if err != nil {
			if n := ruleCount(&p); n != 0 {
				t.Fatalf("ParseRule(%q) rejected (%v) but left %d rules", spec, err, n)
			}
			return
		}
		checkAccepted(t, spec, &p)
	})
}

// TestParseRuleRejectsHostileValues lists the values FuzzParseRule's
// properties rule out: a probability that is not a number, and negative
// durations, which would crash or recover a node before the clock starts, or
// make a delayed message arrive sooner than the fabric delivers it.
func TestParseRuleRejectsHostileValues(t *testing.T) {
	for _, spec := range []string{
		"drop:w1>s:wdone:NaN",
		"dup:w1>s:wdone:nan",
		"drop:w1>s:wdone:+Inf",
		"delay:w1>s:wdone:-1ms",
		"crash:w1@-3s",
		"recover:w1@-1s",
		"slow:client1@-2s",
		"pace:engine@-4ms",
	} {
		var p Plan
		if err := p.ParseRule(spec); err == nil {
			t.Errorf("ParseRule(%q) accepted a hostile value", spec)
		}
	}
}
