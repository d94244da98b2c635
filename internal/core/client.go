package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/mesh"
)

// ErrDeadline is reported by CollectTimeout/RunTimeout when the deadline
// expired before the request's final message arrived. The request itself is
// cancelled server-side.
var ErrDeadline = errors.New("core: request deadline exceeded")

// Client is the in-process stand-in for the ViSTA FlowLib visualization
// client: it submits commands to the scheduler and collects streamed
// partials and final results. All methods must be called from a single
// clock actor.
type Client struct {
	rt    *Runtime
	ep    *comm.Endpoint
	tep   *comm.Endpoint // source endpoint for deadline timer messages
	stash map[uint64][]stamped
	done  map[uint64]bool // requests already collected; late messages dropped
}

type stamped struct {
	msg comm.Message
	at  time.Duration
}

// NewClient attaches a client endpoint to the runtime's fabric. Every
// client gets its own endpoint, so several clients (in-process sessions,
// TCP connections) can work concurrently; replies are routed back to the
// endpoint that issued the request.
func NewClient(rt *Runtime) *Client {
	name := fmt.Sprintf("client%d", rt.NextClientID())
	return &Client{
		rt:    rt,
		ep:    rt.Net.Endpoint(name),
		tep:   rt.Net.Endpoint(name + ".t"),
		stash: map[uint64][]stamped{},
		done:  map[uint64]bool{},
	}
}

// Name reports the client's endpoint name.
func (c *Client) Name() string { return c.ep.Name() }

// RunResult is everything the client observed for one request.
type RunResult struct {
	ReqID uint64
	// Merged is the final geometry: streamed partials assembled in arrival
	// order plus the master's result package.
	Merged *mesh.Mesh
	// Packets holds each streamed partial in arrival order, so callers can
	// inspect what was visualizable when (progressive rendering, tests).
	Packets []*mesh.Mesh
	// Partials counts streamed packets (excluding the final result).
	Partials int
	// Duplicates counts discarded packets: re-streamed after a rank retry,
	// duplicated by link faults, or belonging to a superseded attempt.
	Duplicates int
	// Attempt is the recovery attempt that delivered the final result (0
	// for a fault-free run).
	Attempt int
	// SubmittedAt, FirstAt and FinalAt are clock times of submission, first
	// received geometry and final message.
	SubmittedAt, FirstAt, FinalAt time.Duration
	// Progress holds per-worker progress reports in arrival order (only
	// when the request set progress=1).
	Progress []ProgressReport
	// Err is set when the request failed server-side.
	Err error
}

// ProgressReport is one progress message from one worker.
type ProgressReport struct {
	Worker      string
	Done, Total int
	At          time.Duration
}

// Latency is the paper's latency metric: time until the first visualizable
// data arrived.
func (r *RunResult) Latency() time.Duration { return r.FirstAt - r.SubmittedAt }

// Total is the client-observed completion time.
func (r *RunResult) Total() time.Duration { return r.FinalAt - r.SubmittedAt }

// Submit sends a command without waiting. The returned request ID is passed
// to Collect.
func (c *Client) Submit(command string, params map[string]string) (uint64, error) {
	reqID := c.rt.NextReqID()
	p := map[string]string{}
	for k, v := range params {
		p[k] = v
	}
	p["client"] = c.ep.Name()
	msg := comm.Message{Kind: "command", Command: command, ReqID: reqID, Params: p}
	if err := c.ep.Send("scheduler", msg); err != nil {
		return 0, err
	}
	return reqID, nil
}

// Collect blocks until the request's final message, assembling streamed
// partials. Messages for other in-flight requests are stashed, so several
// Submits can be collected in any order.
//
// Streamed packets go through a StreamAssembler, so re-streamed, duplicated
// and superseded-attempt packets are discarded and the assembled geometry
// matches a fault-free run byte for byte.
func (c *Client) Collect(reqID uint64) (*RunResult, error) {
	asm := NewStreamAssembler()
	res := &RunResult{ReqID: reqID, Merged: asm.Merged, SubmittedAt: c.rt.Clock.Now()}
	defer func() {
		c.done[reqID] = true
		res.Partials, res.Duplicates, res.Err = asm.Partials, asm.Duplicates, asm.Err
	}()
	handle := func(sm stamped) (done bool, err error) {
		m := sm.msg
		if m.Kind == "partial" {
			// Consuming a partial — even a duplicate or one from a stale
			// attempt — returns its stream credit to the producer. The
			// fault plan can model a slow consumer here.
			c.ackPartial(m)
		}
		part, ok, err := asm.Add(m)
		if !ok || err != nil {
			return false, err
		}
		if asm.Attempt != res.Attempt {
			// A restarted request re-delivers from scratch.
			res.Attempt = asm.Attempt
			res.Packets = nil
		}
		if m.Kind == "progress" {
			res.Progress = append(res.Progress, ProgressReport{
				Worker: m.Params["worker"],
				Done:   m.IntParam("done", 0),
				Total:  m.IntParam("total", 0),
				At:     sm.at,
			})
			return false, nil
		}
		if part != nil {
			res.Packets = append(res.Packets, part)
		}
		if asm.Done {
			res.FinalAt = sm.at
		}
		if res.FirstAt == 0 && (part != nil || asm.Done) {
			res.FirstAt = sm.at
		}
		return asm.Done, nil
	}
	// Drain anything already stashed for this request.
	if queued, ok := c.stash[reqID]; ok {
		delete(c.stash, reqID)
		for _, sm := range queued {
			done, err := handle(sm)
			if err != nil {
				return res, err
			}
			if done {
				return res, asm.Err
			}
		}
	}
	for {
		m, ok := c.ep.Recv()
		if !ok {
			return res, fmt.Errorf("core: client endpoint closed before request %d finished", reqID)
		}
		sm := stamped{msg: m, at: c.rt.Clock.Now()}
		if m.ReqID != reqID {
			if !c.done[m.ReqID] {
				c.stash[m.ReqID] = append(c.stash[m.ReqID], sm)
			}
			continue
		}
		done, err := handle(sm)
		if err != nil {
			return res, err
		}
		if done {
			return res, asm.Err
		}
	}
}

// ackPartial models the consumption of one streamed packet: it applies the
// fault plan's slow-consumer delay for this endpoint (if any) and then
// returns the packet's credit to the producer's flow-control window.
func (c *Client) ackPartial(m comm.Message) {
	if d := c.rt.faults.ConsumerDelay(c.ep.Name()); d > 0 {
		c.rt.Clock.Sleep(d)
	}
	c.rt.flow.Ack(m.ReqID, m.IntParam("rank", 0))
}

// CollectTimeout is Collect with a deadline: when d elapses first, the
// request is cancelled server-side and the result carries ErrDeadline. d <= 0
// means no deadline.
func (c *Client) CollectTimeout(reqID uint64, d time.Duration) (*RunResult, error) {
	if d > 0 {
		me := c.ep.Name()
		c.rt.Clock.Go(func() {
			c.rt.Clock.Sleep(d)
			// Both sends are best-effort: the request may have finished, the
			// runtime may be shutting down.
			c.tep.Send("scheduler", comm.Message{Kind: "cancel", ReqID: reqID})
			c.tep.Send(me, comm.Message{
				Kind:  "error",
				ReqID: reqID,
				Final: true,
				Params: map[string]string{
					"error":    "request deadline exceeded",
					"deadline": "1",
					// An effectively-infinite attempt so the deadline is
					// never dropped as stale.
					"attempt": strconv.Itoa(1 << 30),
				},
			})
		})
	}
	return c.Collect(reqID)
}

// Cancel asks the scheduler to cancel a running request. The request still
// completes protocol-wise (the master reports a cancellation error), so
// Collect must still be called.
func (c *Client) Cancel(reqID uint64) error {
	return c.ep.Send("scheduler", comm.Message{Kind: "cancel", ReqID: reqID})
}

// Run submits a command and waits for its completion.
func (c *Client) Run(command string, params map[string]string) (*RunResult, error) {
	reqID, err := c.Submit(command, params)
	if err != nil {
		return nil, err
	}
	return c.Collect(reqID)
}

// RunTimeout submits a command and waits at most d for its completion.
func (c *Client) RunTimeout(command string, params map[string]string, d time.Duration) (*RunResult, error) {
	reqID, err := c.Submit(command, params)
	if err != nil {
		return nil, err
	}
	return c.CollectTimeout(reqID, d)
}
