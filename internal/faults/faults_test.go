package faults

import (
	"bytes"
	"testing"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/grid"
)

func TestOnSendDeterministicAcrossInjectors(t *testing.T) {
	plan := &Plan{
		Seed: 42,
		Links: []LinkRule{
			{From: "w1", To: "scheduler", Kind: "wdone", Drop: 0.5, Duplicate: 0.25},
		},
	}
	a, b := New(plan), New(plan)
	msg := comm.Message{Kind: "wdone"}
	for i := 0; i < 200; i++ {
		fa := a.OnSend("w1", "scheduler", msg)
		fb := b.OnSend("w1", "scheduler", msg)
		if fa != fb {
			t.Fatalf("message %d: decisions diverge: %+v vs %+v", i, fa, fb)
		}
	}
}

func TestOnSendSeedChangesDecisions(t *testing.T) {
	mk := func(seed uint64) []bool {
		in := New(&Plan{Seed: seed, Links: []LinkRule{{Drop: 0.5}}})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.OnSend("a", "b", comm.Message{Kind: "x"}).Drop
		}
		return out
	}
	x, y := mk(1), mk(2)
	same := true
	for i := range x {
		if x[i] != y[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop sequences")
	}
}

func TestOnSendMatchingAndWildcards(t *testing.T) {
	in := New(&Plan{Links: []LinkRule{
		{From: "w0", To: Any, Kind: "wdone", Drop: 1},
		{From: Any, To: "client", Kind: Any, Delay: time.Second},
	}})
	if f := in.OnSend("w0", "scheduler", comm.Message{Kind: "wdone"}); !f.Drop {
		t.Fatal("exact-from wdone not dropped")
	}
	if f := in.OnSend("w1", "scheduler", comm.Message{Kind: "wdone"}); f.Drop {
		t.Fatal("rule for w0 matched w1")
	}
	if f := in.OnSend("w1", "client", comm.Message{Kind: "partial"}); f.ExtraDelay != time.Second {
		t.Fatalf("delay rule not applied: %+v", f)
	}
	if f := in.OnSend("w1", "other", comm.Message{Kind: "partial"}); f != (comm.SendFault{}) {
		t.Fatalf("unmatched message got fault %+v", f)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if f := in.OnSend("a", "b", comm.Message{}); f != (comm.SendFault{}) {
		t.Fatal("nil injector faulted a send")
	}
	if err := in.OnRead(grid.BlockID{}); err != nil {
		t.Fatal("nil injector failed a read")
	}
	if _, doomed := in.CrashTime("w0"); doomed {
		t.Fatal("nil injector crashed a node")
	}
}

func TestReadRuleBudget(t *testing.T) {
	in := New(&Plan{Reads: []ReadRule{
		{Dataset: "tiny", Step: 0, Block: -1, Fail: 2},
	}})
	id := grid.BlockID{Dataset: "tiny", Step: 0, Block: 3}
	if in.OnRead(id) == nil || in.OnRead(id) == nil {
		t.Fatal("first two matching reads should fail")
	}
	if in.OnRead(id) != nil {
		t.Fatal("read rule budget not exhausted after Fail reads")
	}
	if in.OnRead(grid.BlockID{Dataset: "other"}) != nil {
		t.Fatal("rule matched the wrong dataset")
	}
}

func TestReadRuleUnlimited(t *testing.T) {
	in := New(&Plan{Reads: []ReadRule{{Dataset: Any, Step: -1, Block: -1, Fail: -1}}})
	for i := 0; i < 10; i++ {
		if in.OnRead(grid.BlockID{Dataset: "d", Step: i, Block: i}) == nil {
			t.Fatalf("read %d unexpectedly succeeded under Fail<0 rule", i)
		}
	}
}

func TestCrashTime(t *testing.T) {
	p := (&Plan{}).CrashAt("w2", 3*time.Second)
	in := New(p)
	if at, ok := in.CrashTime("w2"); !ok || at != 3*time.Second {
		t.Fatalf("CrashTime(w2) = %v, %v", at, ok)
	}
	if _, ok := in.CrashTime("w0"); ok {
		t.Fatal("CrashTime invented a crash for w0")
	}
}

func TestParseRule(t *testing.T) {
	var p Plan
	for _, spec := range []string{
		"crash:w1@3s",
		"drop:w1>scheduler:wdone:1",
		"dup:*>client:partial:0.5",
		"delay:w0>w1:wpartial:250ms",
		"read:tiny:-1:-1:2",
	} {
		if err := p.ParseRule(spec); err != nil {
			t.Fatalf("ParseRule(%q): %v", spec, err)
		}
	}
	if p.Crashes["w1"] != 3*time.Second {
		t.Fatalf("crash not recorded: %+v", p.Crashes)
	}
	if len(p.Links) != 3 {
		t.Fatalf("links = %d, want 3", len(p.Links))
	}
	if p.Links[0] != (LinkRule{From: "w1", To: "scheduler", Kind: "wdone", Drop: 1}) {
		t.Fatalf("drop rule = %+v", p.Links[0])
	}
	if p.Links[1].Duplicate != 0.5 || p.Links[1].From != Any {
		t.Fatalf("dup rule = %+v", p.Links[1])
	}
	if p.Links[2].Delay != 250*time.Millisecond {
		t.Fatalf("delay rule = %+v", p.Links[2])
	}
	if p.Reads[0] != (ReadRule{Dataset: "tiny", Step: -1, Block: -1, Fail: 2}) {
		t.Fatalf("read rule = %+v", p.Reads[0])
	}
}

func TestParseRuleErrors(t *testing.T) {
	var p Plan
	for _, spec := range []string{
		"",
		"nonsense",
		"frob:w1>w2:x:1",
		"crash:w1",
		"crash:w1@never",
		"drop:w1:wdone:1",
		"drop:w1>s:wdone:2.0",
		"drop:w1>s:wdone",
		"delay:w1>s:wdone:fast",
		"read:tiny:-1:-1",
		"read:tiny:a:b:c",
		"lag:w1",
		"lag:w1:slow",
		"lag:w1:0",
		"lag:w1:-2",
	} {
		if err := p.ParseRule(spec); err == nil {
			t.Errorf("ParseRule(%q) accepted invalid rule", spec)
		}
	}
}

func TestMutateDeterministic(t *testing.T) {
	base := []byte("viracocha frame payload for mutation")
	a := append([]byte(nil), base...)
	b := append([]byte(nil), base...)
	Mutate(99, a, 8)
	Mutate(99, b, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different mutations")
	}
	if bytes.Equal(a, base) {
		t.Fatal("mutation changed nothing")
	}
	c := append([]byte(nil), base...)
	Mutate(100, c, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical mutations")
	}
	Mutate(1, nil, 4) // must not panic on empty input
}

func TestParseRuleDisconAndHang(t *testing.T) {
	var p Plan
	for _, spec := range []string{
		"discon:sess-1:5",
		"discon:*:0",
		"hang:sess-2",
		"hang:*",
	} {
		if err := p.ParseRule(spec); err != nil {
			t.Fatalf("ParseRule(%q): %v", spec, err)
		}
	}
	if len(p.Disconnects) != 2 {
		t.Fatalf("disconnects = %d, want 2", len(p.Disconnects))
	}
	if p.Disconnects[0] != (DisconRule{Name: "sess-1", After: 5}) {
		t.Fatalf("discon rule = %+v", p.Disconnects[0])
	}
	if p.Disconnects[1] != (DisconRule{Name: Any, After: 0}) {
		t.Fatalf("wildcard discon rule = %+v", p.Disconnects[1])
	}
	if !p.Hangs["sess-2"] || !p.Hangs[Any] {
		t.Fatalf("hangs = %+v", p.Hangs)
	}
	for _, bad := range []string{
		"discon:sess-1",
		"discon:sess-1:x",
		"discon:sess-1:-1",
		"hang:",
	} {
		var q Plan
		if err := q.ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted invalid rule", bad)
		}
	}
}

func TestOnConnFrameOneShot(t *testing.T) {
	in := New((&Plan{}).Disconnect("sess-1", 2))
	// Frames 0 and 1 pass; frame 2 fires the rule; the rule then burns.
	for i := 0; i < 2; i++ {
		if in.OnConnFrame("sess-1") {
			t.Fatalf("rule fired early at frame %d", i)
		}
	}
	if !in.OnConnFrame("sess-1") {
		t.Fatal("rule did not fire at its frame count")
	}
	for i := 0; i < 10; i++ {
		if in.OnConnFrame("sess-1") {
			t.Fatal("burned rule fired again")
		}
	}
	// Other connections never matched.
	in2 := New((&Plan{}).Disconnect("sess-1", 0))
	if in2.OnConnFrame("sess-9") {
		t.Fatal("rule fired for a non-matching connection")
	}
}

func TestOnConnFrameRepeatRuleUsesAbsoluteCount(t *testing.T) {
	// Two rules for the same connection: the counter keeps running across
	// the first drop, so the second fires at a later absolute frame count.
	in := New((&Plan{}).Disconnect("s", 1).Disconnect("s", 4))
	var fired []int
	for i := 0; i < 8; i++ {
		if in.OnConnFrame("s") {
			fired = append(fired, i)
		}
	}
	// Frame 1 fires rule 0; frame 2 has count 2 < 4, so rule 1 waits until
	// frame 4.
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 4 {
		t.Fatalf("fired at %v, want [1 4]", fired)
	}
}

func TestHangedWildcard(t *testing.T) {
	var nilInj *Injector
	if nilInj.Hanged("x") {
		t.Fatal("nil injector hanged")
	}
	in := New((&Plan{}).Hang("sess-3"))
	if !in.Hanged("sess-3") || in.Hanged("sess-4") {
		t.Fatal("exact hang match wrong")
	}
	all := New((&Plan{}).Hang(Any))
	if !all.Hanged("anything") {
		t.Fatal("wildcard hang did not match")
	}
}

func TestOnConnFrameNilInjector(t *testing.T) {
	var nilInj *Injector
	if nilInj.OnConnFrame("x") {
		t.Fatal("nil injector disconnected")
	}
}

func TestParseRuleRecoverAndFlap(t *testing.T) {
	var p Plan
	for _, spec := range []string{
		"recover:w1@4s",
		"flap:w2:750ms",
	} {
		if err := p.ParseRule(spec); err != nil {
			t.Fatalf("ParseRule(%q): %v", spec, err)
		}
	}
	if p.Recovers["w1"] != 4*time.Second {
		t.Fatalf("recover not recorded: %+v", p.Recovers)
	}
	if p.Flaps["w2"] != 750*time.Millisecond {
		t.Fatalf("flap not recorded: %+v", p.Flaps)
	}
	for _, bad := range []string{
		"recover:w1",      // missing @DUR
		"recover:@3s",     // empty node
		"recover:w1@soon", // unparseable duration
		"flap:w1",         // missing :PERIOD
		"flap::1s",        // empty node
		"flap:w1:often",   // unparseable period
		"flap:w1:0s",      // period must be positive
		"flap:w1:-1s",
	} {
		if err := p.ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted invalid rule", bad)
		}
	}
}

func TestRecoverAndFlapAccessors(t *testing.T) {
	var nilInj *Injector
	if _, ok := nilInj.RecoverTime("w0"); ok {
		t.Fatal("nil injector invented a recovery")
	}
	if _, ok := nilInj.FlapPeriod("w0"); ok {
		t.Fatal("nil injector invented a flap")
	}
	in := New((&Plan{Seed: 42}).CrashAt("w1", time.Second).
		RecoverAt("w1", 2*time.Second).Flap("w2", 300*time.Millisecond))
	if at, ok := in.RecoverTime("w1"); !ok || at != 2*time.Second {
		t.Fatalf("RecoverTime(w1) = %v, %v", at, ok)
	}
	if _, ok := in.RecoverTime("w2"); ok {
		t.Fatal("RecoverTime invented a recovery for w2")
	}
	if d, ok := in.FlapPeriod("w2"); !ok || d != 300*time.Millisecond {
		t.Fatalf("FlapPeriod(w2) = %v, %v", d, ok)
	}
	if _, ok := in.FlapPeriod("w1"); ok {
		t.Fatal("FlapPeriod invented a flap for w1")
	}
}

func TestMix64MatchesSplitmix(t *testing.T) {
	// Mix64 is the exported finalizer callers hash (seed, counter) pairs
	// through; it must stay the injector's own generator so one scenario
	// seed drives every reproducible decision.
	if Mix64(7) != splitmix64(7) {
		t.Fatal("Mix64 diverged from splitmix64")
	}
	if Mix64(1) == Mix64(2) {
		t.Fatal("Mix64 collapsed distinct inputs")
	}
}
