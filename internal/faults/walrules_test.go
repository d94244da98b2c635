package faults

import (
	"strings"
	"testing"
)

func TestParseRuleTornAndFsyncFail(t *testing.T) {
	var p Plan
	for _, spec := range []string{
		"torn:wal-00000001.log:3",
		"torn:/var/lib/vira/wal:my:dir/wal-00000002.log:1", // PATH with colons
		"torn:*:5",
		"fsyncfail:*",
		"fsyncfail:wal-00000001.log",
	} {
		if err := p.ParseRule(spec); err != nil {
			t.Fatalf("ParseRule(%q): %v", spec, err)
		}
	}
	want := []TornRule{
		{Path: "wal-00000001.log", N: 3},
		{Path: "/var/lib/vira/wal:my:dir/wal-00000002.log", N: 1},
		{Path: Any, N: 5},
	}
	if len(p.Torns) != len(want) {
		t.Fatalf("Torns = %+v", p.Torns)
	}
	for i, r := range want {
		if p.Torns[i] != r {
			t.Errorf("Torns[%d] = %+v, want %+v", i, p.Torns[i], r)
		}
	}
	if len(p.FsyncFails) != 2 || p.FsyncFails[0] != Any || p.FsyncFails[1] != "wal-00000001.log" {
		t.Fatalf("FsyncFails = %+v", p.FsyncFails)
	}
}

func TestParseRuleTornAndFsyncFailErrors(t *testing.T) {
	cases := []string{
		"torn:",          // no count separator
		"torn:path",      // missing N
		"torn::3",        // empty path
		"torn:path:zero", // non-integer N
		"torn:path:0",    // N must be >= 1
		"torn:path:-2",   // negative N
		"fsyncfail:",     // empty path
	}
	for _, spec := range cases {
		var p Plan
		if err := p.ParseRule(spec); err == nil {
			t.Errorf("ParseRule(%q): expected error", spec)
		} else if !strings.Contains(err.Error(), spec) {
			t.Errorf("ParseRule(%q): error %q does not name the rule", spec, err)
		}
	}
}

func TestOnWALAppendCountsPerRule(t *testing.T) {
	in := New(new(Plan).TearAppend(Any, 3))
	path := "/tmp/waldir/wal-00000001.log"
	for i := 1; i <= 5; i++ {
		fired := in.OnWALAppend(path)
		if want := i == 3; fired != want {
			t.Fatalf("append %d: fired=%v, want %v", i, fired, want)
		}
	}
}

func TestOnWALAppendMatchesBaseName(t *testing.T) {
	in := New(new(Plan).TearAppend("wal-00000002.log", 1))
	if in.OnWALAppend("/any/dir/wal-00000001.log") {
		t.Fatal("fired on wrong segment")
	}
	// Appends to non-matching files must not advance the rule's counter.
	if !in.OnWALAppend("/any/dir/wal-00000002.log") {
		t.Fatal("did not fire on matching segment's first append")
	}
}

func TestOnWALSyncOneShot(t *testing.T) {
	in := New(new(Plan).FailFsync(Any))
	if err := in.OnWALSync("/d/wal-00000001.log"); err == nil {
		t.Fatal("first fsync should fail")
	}
	if err := in.OnWALSync("/d/wal-00000001.log"); err != nil {
		t.Fatalf("rule should burn after one use, got %v", err)
	}
}

func TestOnWALHooksNilInjector(t *testing.T) {
	var in *Injector
	if in.OnWALAppend("x") {
		t.Fatal("nil injector tore an append")
	}
	if err := in.OnWALSync("x"); err != nil {
		t.Fatalf("nil injector failed an fsync: %v", err)
	}
}
