package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"viracocha/internal/faults"
)

func appendAll(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatalf("append %q: %v", r, err)
		}
	}
}

func recordStrings(rec *Recovered) []string {
	var out []string
	for _, r := range rec.Records {
		out = append(out, string(r))
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "one", "two", "three")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint != nil {
		t.Fatalf("unexpected checkpoint: %q", rec.Checkpoint)
	}
	if rec.Torn {
		t.Fatal("clean log reported torn")
	}
	if got := recordStrings(rec); !equalStrings(got, []string{"one", "two", "three"}) {
		t.Fatalf("records = %q", got)
	}
}

func TestRecoverMissingDir(t *testing.T) {
	rec, err := Recover(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint != nil || len(rec.Records) != 0 || rec.Torn {
		t.Fatalf("missing dir should recover empty, got %+v", rec)
	}
}

// TestReopenAppends checks that a reopened log appends to a fresh segment and
// recovery still sees every record in order.
func TestReopenAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "b")
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l2, "c")
	l2.Close()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := recordStrings(rec); !equalStrings(got, []string{"a", "b", "c"}) {
		t.Fatalf("records = %q", got)
	}
	if rec.Segments < 2 {
		t.Fatalf("expected a fresh segment on reopen, scanned %d", rec.Segments)
	}
}

// TestTornTail hand-corrupts the final record and checks recovery truncates
// at the cut, keeps everything before it, and leaves the file clean for a
// subsequent Open+Append cycle.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "keep-1", "keep-2", "doomed")
	l.Close()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1].path
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last 3 bytes: the final record's CRC is now incomplete.
	if err := os.WriteFile(last, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn {
		t.Fatal("expected torn tail")
	}
	if got := recordStrings(rec); !equalStrings(got, []string{"keep-1", "keep-2"}) {
		t.Fatalf("records = %q", got)
	}
	// The truncation must leave a cleanly appendable log.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l2, "after")
	l2.Close()
	rec2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Torn {
		t.Fatal("torn after truncate+append")
	}
	if got := recordStrings(rec2); !equalStrings(got, []string{"keep-1", "keep-2", "after"}) {
		t.Fatalf("records = %q", got)
	}
}

// TestTornTailTruncateFails: when the torn tail cannot be cut off (here a
// read-only segment), Recover must say so instead of returning a directory
// whose next Open would append after garbage.
func TestTornTailTruncateFails(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores file permissions: cannot make Truncate fail")
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "keep", "doomed")
	l.Close()
	segs, _ := listSegments(dir)
	last := segs[len(segs)-1].path
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(last, 0o444); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil {
		t.Fatal("Recover swallowed the failed truncate of a torn tail")
	}
}

// TestCheckpointBadReported: a checkpoint file that fails its framing is
// ignored, and the caller is told so.
func TestCheckpointBadReported(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint([]byte("state")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "tail")
	l.Close()
	if rec, err := Recover(dir); err != nil || rec.CheckpointBad || string(rec.Checkpoint) != "state" {
		t.Fatalf("clean checkpoint: %+v, %v", rec, err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointName), []byte("sta"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.CheckpointBad || rec.Checkpoint != nil {
		t.Fatalf("damaged checkpoint not reported: bad=%v checkpoint=%q", rec.CheckpointBad, rec.Checkpoint)
	}
	if got := recordStrings(rec); !equalStrings(got, []string{"tail"}) {
		t.Fatalf("records = %q", got)
	}
}

// TestCorruptMiddle flips a payload byte mid-log: recovery must stop at the
// bad frame rather than resynchronize past it.
func TestCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "good", "evil", "unreachable")
	l.Close()
	segs, _ := listSegments(dir)
	last := segs[len(segs)-1].path
	data, _ := os.ReadFile(last)
	// First record frame: 4 + 4 + 4 bytes. Flip a byte inside "evil".
	data[8+4+4+1] ^= 0xff
	os.WriteFile(last, data, 0o644)
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn {
		t.Fatal("expected torn")
	}
	if got := recordStrings(rec); !equalStrings(got, []string{"good"}) {
		t.Fatalf("records = %q", got)
	}
}

// TestRotationAndCheckpoint drives the log past its segment threshold, cuts a
// checkpoint, and checks the sealed segments are pruned while the checkpoint
// and post-checkpoint tail both recover.
func TestRotationAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		appendAll(t, l, fmt.Sprintf("record-%02d-padding-padding", i))
	}
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	if err := l.Checkpoint([]byte("STATE")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "tail-1", "tail-2")
	l.Close()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Checkpoint) != "STATE" {
		t.Fatalf("checkpoint = %q", rec.Checkpoint)
	}
	if got := recordStrings(rec); !equalStrings(got, []string{"tail-1", "tail-2"}) {
		t.Fatalf("tail = %q", got)
	}
	if rec.Segments != 1 {
		t.Fatalf("compaction left %d segments", rec.Segments)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		err  bool
	}{
		{"always", PolicyAlways, false},
		{"", PolicyAlways, false},
		{"Interval", PolicyInterval, false},
		{"off", PolicyOff, false},
		{"none", PolicyOff, false},
		{"sometimes", PolicyAlways, true},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParsePolicy(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, p := range []Policy{PolicyAlways, PolicyInterval, PolicyOff} {
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v → %q → %v (%v)", p, p.String(), back, err)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o600); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("read back %q, %v", data, err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %d entries", len(ents))
	}
}

// tornHooks tears the Nth append (1-based) across the log's lifetime.
type tornHooks struct {
	n     int
	count int
	sync  error
}

func (h *tornHooks) OnWALAppend(string) bool {
	h.count++
	return h.count == h.n
}
func (h *tornHooks) OnWALSync(string) error {
	err := h.sync
	h.sync = nil
	return err
}

// TestInjectedTornAppend uses the fault hook: the torn append reports
// ErrTorn, the log refuses further appends, and recovery keeps exactly the
// records acknowledged before the tear.
func TestInjectedTornAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Hooks: &tornHooks{n: 3}})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "b")
	if err := l.Append([]byte("torn")); !errors.Is(err, ErrTorn) {
		t.Fatalf("want ErrTorn, got %v", err)
	}
	if err := l.Append([]byte("after")); !errors.Is(err, ErrTorn) {
		t.Fatalf("post-tear append: want ErrTorn, got %v", err)
	}
	l.Kill()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn {
		t.Fatal("expected torn tail from injected tear")
	}
	if got := recordStrings(rec); !equalStrings(got, []string{"a", "b"}) {
		t.Fatalf("records = %q", got)
	}
}

// TestInjectedFsyncFailure checks a failed fsync surfaces through Append
// under PolicyAlways.
func TestInjectedFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected fsync failure")
	h := &tornHooks{sync: boom}
	l, err := Open(dir, Options{Hooks: h})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("want injected fsync error, got %v", err)
	}
	// One-shot: the next append syncs fine.
	appendAll(t, l, "y")
	l.Close()
}

func TestPolicyOffStillRecovers(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "unsynced")
	l.Kill() // no final flush
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := recordStrings(rec); !equalStrings(got, []string{"unsynced"}) {
		t.Fatalf("records = %q", got)
	}
}

// FuzzWALReplay mutates on-disk log bytes and checks Recover never panics,
// never returns an error for in-format damage, and — the torn-tail contract —
// only ever returns a prefix of the original records.
func FuzzWALReplay(f *testing.F) {
	base := func() []byte {
		var buf bytes.Buffer
		for i := 0; i < 6; i++ {
			rec := []byte(fmt.Sprintf("record-%d-payload", i))
			buf.Write(appendFrame(nil, len(rec), rec))
		}
		return buf.Bytes()
	}()
	f.Add(uint64(1), 1)
	f.Add(uint64(42), 4)
	f.Add(uint64(0xdeadbeef), 16)
	f.Fuzz(func(t *testing.T, seed uint64, flips int) {
		if flips < 0 {
			flips = -flips
		}
		flips %= 64
		data := make([]byte, len(base))
		copy(data, base)
		faults.Mutate(seed, data, flips)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(dir)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		// Whatever survived must be a prefix of the original records —
		// mutation may cut the log short but never reorder, invent or
		// resynchronize past damage. (A flipped bit that keeps the CRC
		// valid is a 2^-32 event; Castagnoli catches all small flips.)
		for i, r := range rec.Records {
			want := fmt.Sprintf("record-%d-payload", i)
			if string(r) != want {
				t.Fatalf("record %d = %q, want %q (seed %d flips %d)", i, r, want, seed, flips)
			}
		}
		if len(rec.Records) < 6 && !rec.Torn {
			t.Fatalf("lost records without reporting torn (seed %d flips %d)", seed, flips)
		}
	})
}

// TestAppendPartsIsAppend: a record handed over in pieces leaves the segment
// file byte for byte what the same record appended whole leaves — small and
// empty pieces, a record larger than the staging buffer the log keeps — and
// the log does not hold on to a buffer that outsized record needed.
func TestAppendPartsIsAppend(t *testing.T) {
	records := [][][]byte{
		{[]byte("head"), []byte("payload"), []byte("sum!")},
		{nil, []byte("only"), {}},
		{bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, maxStage), {3, 4, 5, 6}},
		{[]byte("after the big one")},
	}
	whole, parts := t.TempDir(), t.TempDir()
	lw, err := Open(whole, Options{Policy: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Open(parts, Options{Policy: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if err := lw.Append(bytes.Join(rec, nil)); err != nil {
			t.Fatal(err)
		}
		if err := lp.AppendParts(rec...); err != nil {
			t.Fatal(err)
		}
		if cap(lp.stage) > maxStage {
			t.Fatalf("the log kept a %d-byte staging buffer", cap(lp.stage))
		}
	}
	lw.Close()
	lp.Close()
	a, err := os.ReadFile(filepath.Join(whole, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(parts, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("segment written in parts (%d bytes) differs from the one written whole (%d bytes)", len(b), len(a))
	}
}

// syncHooks counts appends and fsyncs; gate, when set, holds the first fsync
// until it is closed (or a deadline passes, so a log that syncs under its own
// lock fails the test instead of deadlocking it), and fail fails that fsync.
type syncHooks struct {
	mu      sync.Mutex
	appends int
	syncs   int
	gate    chan struct{}
	fail    error
}

func (h *syncHooks) OnWALAppend(string) bool {
	h.mu.Lock()
	h.appends++
	h.mu.Unlock()
	return false
}

func (h *syncHooks) OnWALSync(string) error {
	h.mu.Lock()
	h.syncs++
	gate, err := h.gate, h.fail
	h.gate, h.fail = nil, nil
	h.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-time.After(2 * time.Second):
		}
	}
	return err
}

func (h *syncHooks) counts() (appends, syncs int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.appends, h.syncs
}

// waitCommitters waits until n goroutines are parked inside Commit waiting
// for an fsync in flight.
func waitCommitters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "wal.(*Log).Commit") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d committers parked on the fsync in flight, want %d", parked, n)
		}
	}
}

// TestGroupCommitSharesFsync: eight concurrent appenders under PolicyAlways
// share their fsyncs. The first fsync is held until all eight records are
// written, so the other seven are covered by at most one more: at most two
// fsyncs in all, every append acknowledged, every record recovered.
func TestGroupCommitSharesFsync(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	release := make(chan struct{})
	h := &syncHooks{gate: release}
	l, err := Open(dir, Options{Policy: PolicyAlways, Hooks: h})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- l.Append([]byte(fmt.Sprintf("rec-%d", i))) }()
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if appends, _ := h.counts(); appends == n || time.Now().After(deadline) {
			break
		}
	}
	close(release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if _, syncs := h.counts(); syncs > 2 {
		t.Fatalf("%d appenders made %d fsyncs, want at most 2", n, syncs)
	}
	if st := l.Stats(); st.Records != n {
		t.Fatalf("stats count %d records, want %d", st.Records, n)
	}
	l.Kill()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := recordStrings(rec)
	sort.Strings(got)
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("rec-%d", i))
	}
	if !equalStrings(got, want) {
		t.Fatalf("recovered %q, want %q", got, want)
	}
}

// TestGroupCommitFailureReachesBatch: a failed fsync is returned to its
// leader and to every caller waiting on it, and the next Commit fsyncs again.
func TestGroupCommitFailureReachesBatch(t *testing.T) {
	const followers = 4
	boom := errors.New("injected fsync failure")
	release := make(chan struct{})
	h := &syncHooks{gate: release, fail: boom}
	l, err := Open(t.TempDir(), Options{Policy: PolicyOff, Hooks: h})
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for i := 0; i < followers; i++ {
		lsn, err := l.Write([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	errs := make(chan error, followers+1)
	go func() { errs <- l.Commit(lsns[0]) }() // leads: its fsync covers all four
	for {
		if _, syncs := h.counts(); syncs == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, lsn := range lsns {
		go func() { errs <- l.Commit(lsn) }()
	}
	waitCommitters(t, followers)
	close(release)
	for i := 0; i <= followers; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("committer %d: want the injected failure, got %v", i, err)
		}
	}
	if err := l.Commit(lsns[followers-1]); err != nil {
		t.Fatalf("retry after the failed fsync: %v", err)
	}
	if _, syncs := h.counts(); syncs != 2 {
		t.Fatalf("%d fsyncs, want the failed one and its retry", syncs)
	}
	l.Close()
}

// TestGroupCommitAfterKill: a killed log refuses to commit and does not sync.
func TestGroupCommitAfterKill(t *testing.T) {
	h := &syncHooks{}
	l, err := Open(t.TempDir(), Options{Policy: PolicyOff, Hooks: h})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Write([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	l.Kill()
	if err := l.Commit(lsn); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after kill: want ErrClosed, got %v", err)
	}
	if _, syncs := h.counts(); syncs != 0 {
		t.Fatalf("commit after kill made %d fsyncs", syncs)
	}
}
