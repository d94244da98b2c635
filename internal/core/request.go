package core

import (
	"sort"
	"strings"

	"viracocha/internal/comm"
)

// Request is a client command parsed once, at admission: every parameter the
// framework itself acts on, resolved against the runtime's Config defaults,
// the canonical memo key, and — for a request re-admitted by crash recovery —
// its recovery plan. The pending queue, the active record, the memo path and
// every rank's Ctx share one Request and never re-read these keys; a command
// reads its own parameters (iso, field, ...) through Ctx.Param and friends.
// A Request does not change once it is queued.
type Request struct {
	ReqID   uint64
	Command string
	// Client is the fabric endpoint replies go to. Session is the
	// admission-control session charged for the request: the TCP bridge
	// stamps one per connection, in-process clients fall back to Client.
	Client, Session string
	Dataset         string
	Step            int
	// Workers is the requested group size, Retries the recovery budget
	// (default 2).
	Workers, Retries int
	// Journal runs block-granular recovery ("redistribute", default off):
	// the ranks of a streaming command declare their spans and watermarks,
	// so a dead rank costs only its blocks not yet streamed.
	Journal bool
	// Memo routes the request through the result-memoization table.
	Memo bool
	// StreamWindow is the stream credit window per rank (<= 0: unwindowed).
	StreamWindow int

	// MemoKey is the canonical content address of the result (set only when
	// Memo is on).
	MemoKey string

	// Attempt and Span are the plan of a request re-admitted by crash
	// recovery: it runs under the recorded attempt and, when HasSpan, the new
	// group recomputes only the items not yet streamed. Zero when fresh.
	Attempt int
	Span    []int
	HasSpan bool

	msg comm.Message // the received command, read only through Ctx.Param
}

// defaultRetries is the recovery budget of a request without "retries".
const defaultRetries = 2

// parseRequest reads the framework's keys from a client command — the only
// place they are read. A "span" the client smuggles in is ignored: spans are
// the scheduler's recovery annotation. The memo key is the command name plus
// every result-shaping parameter, sorted by key, with values normalized
// through comm.CanonicalFloat so numerically equal spellings ("0.5", "0.50",
// "5e-1") share one entry; transport- and identity-shaping parameters change
// who receives the stream and how it is paced, not what is extracted, and
// are left out.
func parseRequest(m comm.Message, cfg *Config) *Request {
	p := m.Params
	r := &Request{
		ReqID:        m.ReqID,
		Command:      m.Command,
		Client:       p["client"],
		Session:      p["session"],
		Dataset:      p["dataset"],
		Step:         m.IntParam("step", 0),
		Workers:      m.IntParam("workers", 1),
		Retries:      m.IntParam("retries", defaultRetries),
		Journal:      m.IntParam("redistribute", 0) != 0,
		Memo:         m.IntParam("memo", boolInt(cfg.Memo)) != 0,
		StreamWindow: m.IntParam("stream_window", cfg.Overload.StreamWindow),
		msg:          m,
	}
	if r.Client == "" {
		r.Client = "client"
	}
	if r.Session == "" {
		r.Session = r.Client
	}
	if !r.Memo {
		return r
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		switch k {
		case "client", "session", "memo", "stream_window":
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(m.Command)
	for _, k := range keys {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(comm.CanonicalFloat(p[k]))
	}
	r.MemoKey = b.String()
	return r
}

// failed is the final message that fails r under attempt with the error text.
func (r *Request) failed(attempt int, text string) comm.Message {
	return comm.Message{Kind: "error", Command: r.Command, ReqID: r.ReqID, Final: true,
		Attempt: comm.Some(attempt), Params: map[string]string{"error": text}}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Start is the body of a "start": one rank's share of a dispatch. The ranks
// of one dispatch share Group, which no one writes after the send.
type Start struct {
	Req     *Request
	Rank    int
	Group   []string // node names of the work group, Group[0] the master
	Attempt int
	// Span, when HasSpan, is the explicit work span the scheduler re-issues
	// (block-granular failover, crash recovery); otherwise the command
	// deals its own share.
	Span    []int
	HasSpan bool
}

// Report is the body of every other control message between the scheduler
// and the workers — wdone, wspan, wmark, hb, join, cordon, decommission,
// wpartial, werror and wfail — each kind filling the fields it needs. A
// dup: fault delivers one Report twice, so no one writes it after the send.
type Report struct {
	Worker string
	// Epoch is the sender's incarnation; 0 means unstamped (never fenced).
	Epoch   int
	Rank    int
	Attempt int
	// Err is a rank's failure (wdone, werror, wfail); Mute on a wfail unwinds
	// the master's gather without a word to the client.
	Err  string
	Mute bool

	// wdone: the rank's probes and counters.
	Probes   Probes
	Streams  int
	Uncached int
	// wspan: the declared span.
	Span []int
	// wmark: one completed item and its count of block-tagged frames.
	Item, BFrames int
	// hb: the worker's state and the cumulative watermark of the journaled
	// execution in flight (request MarkReq, at Rank and Attempt; 0 = none).
	Idle    bool
	MarkReq uint64
	Marks   []int
}
