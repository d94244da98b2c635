package main

import (
	"encoding/binary"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"viracocha"
)

// bootWAL builds a System the way main does for -wal DIR and recovers it.
func bootWAL(t *testing.T, dir string) *viracocha.System {
	t.Helper()
	sys := viracocha.New(viracocha.Options{Workers: 1, WALDir: dir, WALFsync: "off"})
	if _, err := sys.AddDataset("tiny", 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.RecoverWAL(); err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	return sys
}

// killedWALDir runs one durable session against a WAL-backed server and
// hard-kills it: the directory is left holding the (empty) boot checkpoint
// and, in the tail records alone, the session and its finished request.
func killedWALDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	sys := bootWAL(t, dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sys.Serve(ln)
	rc, err := viracocha.DialResume(ln.Addr().String(), 2, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Run("iso.dataman", viracocha.Params(
		"dataset", "tiny", "workers", "1", "iso", "0.5"), nil); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	sys.Kill()
	rc.Close() // after the kill: the goodbye that would purge the session goes nowhere
	return dir
}

// checkBootsFromTail recovers dir and asserts the damaged checkpoint was
// reported and skipped while the tail records still rebuilt the session.
func checkBootsFromTail(t *testing.T, dir string) {
	t.Helper()
	sys := bootWAL(t, dir)
	defer sys.Kill()
	if n := sys.SessionCount(); n != 1 {
		t.Fatalf("sessions rebuilt from the tail records = %d, want 1", n)
	}
	for _, ev := range sys.Trace() {
		if ev.Actor == "wal" && strings.Contains(ev.Msg, "checkpoint") && strings.Contains(ev.Msg, "records only") {
			return
		}
	}
	t.Fatalf("damaged checkpoint not reported in the trace: %v", sys.Trace())
}

// TestRecoverWALCorruptCheckpoint verifies the server boots over a checkpoint
// it cannot read — here a well-framed one in a foreign (the pre-record-batch
// JSON) layout — instead of refusing to start over an artifact of its own
// earlier life.
func TestRecoverWALCorruptCheckpoint(t *testing.T) {
	dir := killedWALDir(t)
	payload := []byte(`{"counter":1,"leases":{"sess-1":0},"sessions":{}}`)
	framed := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	framed = append(framed, payload...)
	framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(filepath.Join(dir, "checkpoint"), framed, 0o644); err != nil {
		t.Fatal(err)
	}
	checkBootsFromTail(t, dir)
}

// TestRecoverWALTruncatedCheckpoint verifies a half-written checkpoint is
// tolerated the same way.
func TestRecoverWALTruncatedCheckpoint(t *testing.T) {
	dir := killedWALDir(t)
	path := filepath.Join(dir, "checkpoint")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	checkBootsFromTail(t, dir)
}

// TestParseFaultsRefusesLag verifies the server refuses the one rule that
// cannot act on its real clock, naming the rule, while real-clock rules parse.
func TestParseFaultsRefusesLag(t *testing.T) {
	if _, err := parseFaults([]string{"crash:w1@1s", "lag:w1:4"}); err == nil || !strings.Contains(err.Error(), "lag:w1:4") {
		t.Fatalf("lag: rule: err = %v, want a refusal naming the rule", err)
	}
	plan, err := parseFaults([]string{"crash:w1@1s", "drop:w1>scheduler:wdone:1"})
	if err != nil || plan == nil {
		t.Fatalf("crash: + drop: = %v, %v; want a plan", plan, err)
	}
}
