package viracocha

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/core"
	"viracocha/internal/wal"
)

// The crash-cut sweep (DESIGN §15): one canonical durable request is run once
// with its WAL directory photographed at every instant the writer is about to
// write a record or fsync. Every record boundary of that log, and one torn
// cut inside every record, is then a crash state: a server restarts on it and
// a client resumes holding only what it had acknowledged (nothing, before an
// acknowledgement first trims the log), holding every frame the cut logged,
// or holding frames past the cut — which is what a client holds once frames
// leave before their records are written. A client holding frames past the
// cut detaches once more after its first new partial and resumes again, with
// the watermark those frames left it. Each resumed mesh must equal the
// crash-free one byte for byte.

// crashCutSegment is the segment size and checkpoint cadence of the recorded
// log: small enough that the request's records cross several segment
// rotations and checkpoints.
const crashCutSegment = 16 << 10

// walFiles is a WAL directory's content, file name → bytes.
type walFiles map[string][]byte

func readWALFiles(dir string) (walFiles, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := walFiles{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = data
	}
	return files, nil
}

func (f walFiles) write(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range f {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// segments lists the segment names, oldest first.
func (f walFiles) segments() []string {
	var names []string
	for name := range f {
		if strings.HasPrefix(name, "wal-") {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

func (f walFiles) digest() [32]byte {
	h := sha256.New()
	names := make([]string, 0, len(f))
	for name := range f {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s %d\n", name, len(f[name]))
		h.Write(f[name])
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// with returns a copy of f in which file name holds data.
func (f walFiles) with(name string, data []byte) walFiles {
	out := make(walFiles, len(f))
	for k, v := range f {
		out[k] = v
	}
	out[name] = data
	return out
}

// recordSpans returns the [start, end) byte span of every whole framed record
// in a segment.
func recordSpans(seg []byte) [][2]int {
	var spans [][2]int
	for off := 0; len(seg)-off >= 8; {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		if off+8+n > len(seg) {
			break
		}
		spans = append(spans, [2]int{off, off + 8 + n})
		off += 8 + n
	}
	return spans
}

// photographer wraps the system's fault injector: before every record write
// and every fsync it copies the WAL directory. The log's writer is the only
// goroutine that writes the directory until Kill writes out the stage, and it
// is inside the hook, so each copy is exactly what a crash at that instant
// leaves on disk.
type photographer struct {
	wal.FaultHooks
	t     *testing.T
	dir   string
	mu    sync.Mutex
	shots []walFiles
}

func (p *photographer) shoot() {
	files, err := readWALFiles(p.dir)
	if err != nil {
		p.t.Errorf("photographing the WAL directory: %v", err) // on the writer's goroutine: no Fatal
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.shots); n > 0 && p.shots[n-1].digest() == files.digest() {
		return
	}
	p.shots = append(p.shots, files)
}

func (p *photographer) OnWALAppend(path string) bool {
	p.shoot()
	return p.FaultHooks.OnWALAppend(path)
}

func (p *photographer) OnWALSync(path string) error {
	p.shoot()
	return p.FaultHooks.OnWALSync(path)
}

// crashState is one directory a crash can leave, named by where it cuts.
type crashState struct {
	k     int    // records written into the active segment since the log opened
	cut   string // how the active segment ends
	files walFiles
}

// crashStates enumerates the crash states between the photographs: each
// photograph itself; every record boundary and one torn cut inside every
// record that the active segment gained since the photograph before; and,
// where a checkpoint replaced the previous one, the renamed-but-not-pruned
// directory that holds the new checkpoint beside the old segments.
func crashStates(shots []walFiles) (states []crashState, checkpoints, rotations int) {
	seen := map[[32]byte]bool{}
	add := func(k int, cut string, files walFiles) {
		if d := files.digest(); !seen[d] {
			seen[d] = true
			states = append(states, crashState{k, cut, files})
		}
	}
	prev := walFiles{}
	k := 0
	for _, shot := range shots {
		segs := shot.segments()
		if len(segs) == 0 {
			continue
		}
		active := segs[len(segs)-1]
		content := shot[active]
		start := 0
		if old, ok := prev[active]; ok && bytes.HasPrefix(content, old) {
			start = len(old)
		} else if len(prev) > 0 {
			rotations++
		}
		if len(prev) > 0 && !bytes.Equal(prev["checkpoint"], shot["checkpoint"]) {
			checkpoints++
			renamed := shot.with("checkpoint", shot["checkpoint"])
			for _, name := range prev.segments() {
				if _, ok := renamed[name]; !ok {
					renamed[name] = prev[name]
				}
			}
			add(k, "checkpoint renamed, older segments not yet pruned", renamed)
		}
		for _, sp := range recordSpans(content) {
			if sp[0] < start {
				continue
			}
			add(k, fmt.Sprintf("%s torn at %d", active, sp[0]+(sp[1]-sp[0])/2), shot.with(active, content[:sp[0]+(sp[1]-sp[0])/2]))
			k++
			add(k, fmt.Sprintf("%s at %d", active, sp[1]), shot.with(active, content[:sp[1]]))
		}
		add(k, fmt.Sprintf("%s at %d", active, len(content)), shot)
		prev = shot
	}
	return states, checkpoints, rotations
}

// recordCanonical runs the canonical durable request, iso.viewer with params,
// on a fresh WAL server under policy, photographing the directory, and
// returns the photographs, the session ID and every frame the client
// received, in order.
func recordCanonical(t *testing.T, policy string, params map[string]string) ([]walFiles, string, []comm.Message) {
	t.Helper()
	dir := t.TempDir()
	// Paced reads spread the frames over many write turns, so checkpoints
	// and rotations fall between them.
	sys := New(Options{Workers: 2, SessionLease: time.Minute, WALDir: dir, WALFsync: policy, Faults: pacedReads()})
	sys.wal.segBytes = crashCutSegment
	if _, err := sys.AddDataset("engine", 1); err != nil {
		t.Fatal(err)
	}
	p := &photographer{FaultHooks: sys.Runtime.FaultInjector(), t: t, dir: dir}
	if err := sys.recoverWAL(p); err != nil {
		t.Fatal(err)
	}
	ln := listenRetry(t, "")
	go sys.Serve(ln)
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rc.Resume = true
	if err := rc.handshake(nil); err != nil {
		t.Fatal(err)
	}
	if err := rc.send(comm.Message{Kind: "command", Command: "iso.viewer", ReqID: 1, Params: params}); err != nil {
		t.Fatal(err)
	}
	var frames []comm.Message
	for {
		m, ok := rc.recv()
		if !ok {
			t.Fatal("connection lost while recording")
		}
		m.Payload = bytes.Clone(m.Payload)
		frames = append(frames, m)
		if m.Kind == "partial" {
			rc.send(comm.Message{Kind: "ack", ReqID: 1, Rank: m.Rank, SSeq: m.SSeq})
		}
		if m.Final {
			break
		}
	}
	// No "done": the request stays in the log, as in every state before it.
	rc.closeConn()
	ln.Close()
	sys.Kill()
	p.shoot()
	return p.shots, rc.SessionID(), frames
}

// clientStates are the frames a resuming client may hold at a crash state
// whose recovered log reaches sseq head and no longer retains the frames up
// to acked, which an acknowledgement trimmed: at least those (nothing, when
// no frame was trimmed); every frame logged; and — when the recording sent
// any — frames past the log, up to the last one before the final frame.
func clientStates(frames []comm.Message, acked, head int) map[string][]comm.Message {
	var least, logged, past []comm.Message
	for _, m := range frames {
		if m.SSeq.Or(0) <= acked {
			least = append(least, m)
		}
		if m.SSeq.Or(0) <= head {
			logged = append(logged, m)
		}
		if !m.Final {
			past = append(past, m)
		}
	}
	states := map[string][]comm.Message{"acked": least}
	if len(logged) > len(least) {
		states["logged"] = logged
	}
	if len(past) > len(logged) {
		states["past"] = past
	}
	return states
}

// recoveredHead loads a crash state the way recovery will and reports whether
// the session and its request survive, the sseq up to which acknowledgements
// trimmed the request's log, and its stream head.
func recoveredHead(t *testing.T, files walFiles, sid string) (session, request bool, acked, head int) {
	t.Helper()
	dir := t.TempDir()
	files.write(t, dir)
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := newWALSink(dir)
	w.load(rec)
	sess := w.state.Sessions[sid]
	if sess == nil {
		return false, false, 0, 0
	}
	r := sess.Reqs[1]
	if r == nil {
		return true, false, 0, 0
	}
	head = r.log.head()
	acked = head
	if len(r.log.frames) > 0 {
		acked = r.log.frames[0].sseq - 1
	}
	return true, true, acked, head
}

// cutClient is a client resuming from a crash state: the server's fsync
// policy, its session, the params of the iso.viewer command it sent, the
// frames it holds, and whether it detaches after the first partial the
// resumed stream delivers and resumes once more.
type cutClient struct {
	policy, sid string
	params      map[string]string
	held        []comm.Message
	again       bool
}

// resumeCut restarts a server on a crash state and resumes c's session; it
// returns the merged mesh's bytes.
func resumeCut(t *testing.T, files walFiles, c cutClient) ([]byte, error) {
	t.Helper()
	asm := core.NewStreamAssembler()
	mark := 0
	for _, m := range c.held {
		if _, _, err := asm.Add(m); err != nil {
			return nil, err
		}
		mark = max(mark, m.SSeq.Or(0))
	}
	if asm.Done {
		if asm.Err != nil {
			return nil, asm.Err
		}
		return asm.Merged.EncodeBinary(), nil
	}
	dir := t.TempDir()
	files.write(t, dir)
	sys := New(Options{Workers: 2, SessionLease: time.Minute, WALDir: dir, WALFsync: c.policy})
	if _, err := sys.AddDataset("engine", 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.RecoverWAL(); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	defer sys.Kill()
	ln := listenRetry(t, "")
	defer ln.Close()
	go sys.Serve(ln)
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer rc.closeConn()
	rc.Resume, rc.sessionID = true, c.sid
	if err := rc.handshake(map[uint64]int{1: mark}); err != nil {
		return nil, err
	}
	// As a resuming client does: send the command again in case it never
	// arrived; a request the server knows is deduplicated.
	cmd := comm.Message{Kind: "command", Command: "iso.viewer", ReqID: 1, Params: c.params}
	if err := rc.send(cmd); err != nil {
		return nil, err
	}
	deadline := time.AfterFunc(20*time.Second, rc.closeConn)
	defer deadline.Stop()
	for !asm.Done {
		m, ok := rc.recv()
		if !ok {
			return nil, fmt.Errorf("connection lost after %d partials", asm.Partials)
		}
		if m.ReqID != 1 {
			continue
		}
		if m.Kind == "partial" {
			rc.send(comm.Message{Kind: "ack", ReqID: 1, Rank: m.Rank, SSeq: m.SSeq})
		}
		if _, _, err := asm.Add(m); err != nil {
			return nil, err
		}
		mark = max(mark, m.SSeq.Or(0))
		if c.again && m.Kind == "partial" && !asm.Done {
			c.again = false
			if err := rc.reconnectResume(1, mark); err != nil {
				return nil, fmt.Errorf("second resume: %w", err)
			}
			if err := rc.send(cmd); err != nil {
				return nil, err
			}
		}
	}
	if asm.Err != nil {
		return nil, asm.Err
	}
	return asm.Merged.EncodeBinary(), nil
}

// saveCut writes a failing crash state where it outlives the test, with the
// client resuming from it, and returns the directory.
func saveCut(t *testing.T, files walFiles, c cutClient) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "crashcut-")
	if err != nil {
		t.Fatal(err)
	}
	files.write(t, filepath.Join(dir, "wal"))
	meta := comm.Message{Kind: "crashcut", Params: map[string]string{"policy": c.policy, "session": c.sid, "again": strconv.FormatBool(c.again)}}
	cmd := comm.Message{Kind: "command", Params: c.params}
	if err := os.WriteFile(filepath.Join(dir, "held"), comm.EncodeBatch(append([]comm.Message{meta, cmd}, c.held...)), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// sweepCuts records the canonical request under policy with params and
// resumes every stride-th crash state (and the last) from each client state
// in names; a client holding frames past the log detaches and resumes once
// more. Every resumed mesh must equal ref byte for byte; a failing state is
// saved for CRASHCUT_REPLAY. It returns the crash states, the checkpoints
// and rotations between them, the cuts a client resumes from and the
// resumes.
func sweepCuts(t *testing.T, ref []byte, policy string, params map[string]string, stride int, names ...string) (states []crashState, checkpoints, rotations, cuts, visited int) {
	t.Helper()
	shots, sid, frames := recordCanonical(t, policy, params)
	states, checkpoints, rotations = crashStates(shots)
	for i, st := range states {
		if i%stride != 0 && i != len(states)-1 {
			continue
		}
		session, request, acked, head := recoveredHead(t, st.files, sid)
		if !session {
			continue // the lease reply waits for its record: no client holds this session
		}
		cuts++
		clients := clientStates(frames, acked, head)
		if !request {
			clients = map[string][]comm.Message{"acked": nil} // nor a frame before the admission is durable
		}
		for _, name := range names {
			held, ok := clients[name]
			if !ok {
				continue
			}
			visited++
			c := cutClient{policy: policy, sid: sid, params: params, held: held, again: name == "past"}
			got, err := resumeCut(t, st.files, c)
			if err == nil && bytes.Equal(got, ref) {
				continue
			}
			if err == nil {
				err = fmt.Errorf("the resumed mesh differs from the crash-free one")
			}
			dir := saveCut(t, st.files, c)
			t.Fatalf("crash cut (k=%d, %s, client holding %s: %d frames, head %d): %v; replay alone with CRASHCUT_REPLAY=%s go test -run '%s$' .",
				st.k, st.cut, name, len(held), head, err, dir, strings.Split(t.Name(), "/")[0])
		}
	}
	return states, checkpoints, rotations, cuts, visited
}

// crashCutStride is how many crash states a sweep steps over per visit:
// CRASHCUT_STRIDE, default 6 (make soak visits all of them).
func crashCutStride() int {
	if n, err := strconv.Atoi(os.Getenv("CRASHCUT_STRIDE")); err == nil && n > 0 {
		return n
	}
	return 6
}

// TestCrashCutSweep runs the sweep under fsync always and interval, visiting
// every crashCutStride-th crash state. A failing state is saved and replays
// alone with CRASHCUT_REPLAY=DIR.
func TestCrashCutSweep(t *testing.T) {
	ref := referenceMesh(t)
	if dir := os.Getenv("CRASHCUT_REPLAY"); dir != "" {
		replayCut(t, dir, ref)
		return
	}
	stride := crashCutStride()
	for _, policy := range []string{"always", "interval"} {
		t.Run(policy, func(t *testing.T) {
			states, checkpoints, rotations, cuts, visited := sweepCuts(t, ref, policy, streamParams(), stride, "acked", "logged", "past")
			if checkpoints < 2 || rotations < 2 {
				t.Fatalf("the recorded log crossed %d checkpoints and %d segment rotations, want at least 2 of each", checkpoints, rotations)
			}
			t.Logf("fsync %s: %d crash states (%d checkpoints, %d rotations), %d cuts a client resumes from, %d resumes byte-identical (stride %d)",
				policy, len(states), checkpoints, rotations, cuts, visited, stride)
		})
	}
}

// TestCrashCutRestartsWhole: a memoized request journals its blocks under
// its producer's ID, so recovery restarts it whole one attempt up and its
// client discards every frame it held. A client holding frames past the log
// then needs every post-restart frame stamped past its watermark
// (walSseqGap): on the resume, and on a second detach and resume after it.
// Every crashCutStride-th crash state with such a client resumes to the
// crash-free mesh.
func TestCrashCutRestartsWhole(t *testing.T) {
	ref := referenceMesh(t)
	if dir := os.Getenv("CRASHCUT_REPLAY"); dir != "" {
		replayCut(t, dir, ref)
		return
	}
	params := streamParams()
	params["memo"] = "1"
	_, _, _, cuts, visited := sweepCuts(t, ref, "interval", params, crashCutStride(), "past")
	if visited == 0 {
		t.Fatalf("none of %d cuts leaves a client holding frames past the log", cuts)
	}
	t.Logf("%d cuts a client resumes from, %d resumes past the log byte-identical", cuts, visited)
}

// replayCut resumes one saved crash state.
func replayCut(t *testing.T, dir string, ref []byte) {
	data, err := os.ReadFile(filepath.Join(dir, "held"))
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := comm.DecodeBatch(data)
	if err != nil || len(msgs) < 2 || msgs[0].Kind != "crashcut" {
		t.Fatalf("%s is not a saved crash cut (%v)", dir, err)
	}
	files, err := readWALFiles(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumeCut(t, files, cutClient{policy: msgs[0].Params["policy"], sid: msgs[0].Params["session"],
		params: msgs[1].Params, held: msgs[2:], again: msgs[0].Params["again"] == "true"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("the resumed mesh differs from the crash-free one")
	}
}
