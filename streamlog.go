package viracocha

import (
	"slices"
	"strconv"
	"sync"

	"viracocha/internal/comm"
)

// logFrame is one stamped outbound frame: the wire bytes the socket and the
// WAL both carry, with the facts replay, trim and recovery need beside them
// as plain ints so nothing downstream decodes the bytes to learn them.
type logFrame struct {
	sseq    int
	block   int  // block tag; -1 when untagged
	attempt int  // -1 when the frame carries none
	partial bool // a streamed partial: trimmed once acknowledged
	final   bool
	// wire, payload and sum concatenate to comm.Encode of the stamped frame:
	// the parts as the bridge framed them (payload is the worker's buffer), or
	// all in wire when read back from the WAL; nil on ephemeral sessions.
	wire, payload, sum []byte
}

// newLogFrame reads a stamped frame's log facts off the message it encodes.
func newLogFrame(m comm.Message, wire []byte) logFrame {
	return logFrame{
		sseq:    m.IntParam("sseq", 0),
		block:   m.IntParam("block", -1),
		attempt: m.IntParam("attempt", -1),
		partial: m.Kind == "partial",
		final:   m.Final,
		wire:    wire,
	}
}

// streamLog is the single record of what one request has been sent: an
// append-only log keyed by sseq. The bridge's liveReq and the WAL's walReq
// point at the same log — the bridge appends when it stamps a frame, a
// resume replays past the client's mark, an ack trims the tail, a checkpoint
// persists what is left, and recovery hands the rebuilt log back to the
// bridge.
//
// mu is a leaf lock: it is taken under bridge.mu (append, replay, trim) and
// under walSink.mu (checkpoints, which fire under bridge.mu or scheduler.mu),
// and nothing is called while it is held.
type streamLog struct {
	mu     sync.Mutex
	sseq   int        // highest sequence stamped; only ever grows
	done   bool       // the final frame was stamped
	frames []logFrame // retained for replay, ascending sseq
	// logged counts, per block, the tagged frames ever appended under the
	// newest attempt — trimmed since or not. Recovery proves a journaled
	// block reached the log in full by comparing it with the wmark's bframes.
	attempt int
	logged  map[int]int
}

func (l *streamLog) head() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sseq
}

func (l *streamLog) final() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.done
}

// append logs one stamped frame. A frame at or below the head is dropped:
// replaying a pre-checkpoint wframe must never resurrect a frame an ack
// already trimmed, nor count a block twice. A frame without wire bytes (an
// ephemeral session's) advances the sequence and retains nothing.
func (l *streamLog) append(f logFrame) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f.sseq <= l.sseq {
		return
	}
	l.sseq = f.sseq
	l.done = l.done || f.final
	if f.wire == nil {
		return
	}
	if f.block >= 0 && f.attempt >= l.attempt {
		if f.attempt > l.attempt || l.logged == nil {
			// A newer attempt starts the counts over, as its dispatch starts
			// the journal over.
			l.attempt, l.logged = f.attempt, map[int]int{}
		}
		l.logged[f.block]++
	}
	l.frames = append(l.frames, f)
}

// after returns the retained frames past mark, oldest first: the replay a
// resume handshake is owed.
func (l *streamLog) after(mark int) []comm.Frame {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []comm.Frame
	for _, f := range l.frames {
		if f.sseq > mark {
			out = append(out, comm.Frame{Head: f.wire, Payload: f.payload, Sum: f.sum})
		}
	}
	return out
}

// trim drops the leading partials up to the acknowledged sseq: resume marks
// are monotonic, so they can never be replayed again.
func (l *streamLog) trim(acked int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.frames) > 0 && l.frames[0].partial && l.frames[0].sseq <= acked {
		l.frames[0] = logFrame{}
		l.frames = l.frames[1:]
	}
}

// skip moves the head past gap unused sequence numbers (see walSseqGap).
func (l *streamLog) skip(gap int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sseq += gap
}

// loggedUnder returns the per-block logged counts if they belong to attempt.
func (l *streamLog) loggedUnder(attempt int) map[int]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if attempt != l.attempt {
		return nil
	}
	return l.logged
}

// frameRecord wraps one retained frame's wire bytes as a WAL record.
func frameRecord(sessID string, clientReq uint64, wire []byte) comm.Message {
	return comm.Message{Kind: "wframe", ReqID: clientReq, Params: map[string]string{
		"sess": sessID,
	}, Payload: wire}
}

// records is the log's checkpoint form: the retained frames as the wframe
// records the live path appended for them, then one wstream record carrying
// what the frames alone cannot rebuild — the head, the final flag and the
// logged counts of frames trimmed since.
func (l *streamLog) records(sessID string, clientReq uint64) []comm.Message {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := make([]comm.Message, 0, len(l.frames)+1)
	for _, f := range l.frames {
		recs = append(recs, frameRecord(sessID, clientReq, slices.Concat(f.wire, f.payload, f.sum)))
	}
	blocks := make([]int, 0, len(l.logged))
	counts := make([]int, 0, len(l.logged))
	for b, n := range l.logged {
		blocks = append(blocks, b)
		counts = append(counts, n)
	}
	final := "0"
	if l.done {
		final = "1"
	}
	return append(recs, comm.Message{Kind: "wstream", ReqID: clientReq, Params: map[string]string{
		"sess": sessID, "sseq": strconv.Itoa(l.sseq), "final": final,
		"attempt": strconv.Itoa(l.attempt),
		"blocks":  comm.EncodeIntList(blocks), "counts": comm.EncodeIntList(counts),
	}})
}

// restore applies a wstream record on top of the retained frames replayed
// just before it, whose counts it supersedes.
func (l *streamLog) restore(m comm.Message) {
	blocks, counts := comm.ParseIntList(m.Params["blocks"]), comm.ParseIntList(m.Params["counts"])
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := m.IntParam("sseq", 0); s > l.sseq {
		l.sseq = s
	}
	l.done = l.done || m.Params["final"] == "1"
	// Disk input: a damaged list pair proves nothing about any block.
	if attempt := m.IntParam("attempt", -1); attempt >= l.attempt && len(blocks) == len(counts) {
		l.attempt, l.logged = attempt, make(map[int]int, len(blocks))
		for i, b := range blocks {
			l.logged[b] = counts[i]
		}
	}
}
