package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"viracocha/internal/comm"
	"viracocha/internal/dms"
	"viracocha/internal/mesh"
	"viracocha/internal/prefetch"
)

// crashSignal is the panic value used to unwind a worker that fail-stopped
// mid-command: execution aborts at the next crash point without reporting
// anything to anyone, which is exactly what a dead node does.
type crashSignal struct{}

// Worker is one computing node: an endpoint on the fabric, a DMS proxy, and
// an actor loop executing work-group commands. Workers heartbeat to the
// scheduler and can fail-stop — by fault-injection plan or by being fenced
// after the failure detector gave up on them.
type Worker struct {
	rt    *Runtime
	node  string
	ep    *comm.Endpoint
	pf    prefetch.Prefetcher
	proxy *dms.Proxy

	dead    atomic.Bool // fail-stopped: no further sends or receives
	stopped atomic.Bool // clean shutdown: heartbeats cease

	mu sync.Mutex
	// epoch is the incarnation number, starting at 1 and bumped on every
	// respawn. Actors of an old incarnation carry their epoch and become
	// inert once it is stale; the scheduler fences frames the same way.
	epoch int
	busy  bool // executing a command (reported in heartbeats)
	// Journal-mode watermark state, published by the executing Ctx and
	// piggybacked on heartbeats: the request/rank/attempt being executed and
	// the cumulative set of completed span items. Heartbeat re-delivery makes
	// the scheduler's journal robust against a lost wmark message.
	jreq     uint64
	jrank    int
	jattempt int
	jmarks   []int
}

func newWorker(rt *Runtime, node string, pf prefetch.Prefetcher) *Worker {
	return &Worker{
		rt:    rt,
		node:  node,
		ep:    rt.Net.Endpoint(node),
		pf:    pf,
		epoch: 1,
	}
}

// Epoch reports the worker's current incarnation number.
func (w *Worker) Epoch() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// endpoint returns the current incarnation's NIC.
func (w *Worker) endpoint() *comm.Endpoint {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ep
}

// Dead reports whether the worker has fail-stopped.
func (w *Worker) Dead() bool { return w.dead.Load() }

// crash fail-stops the worker: it stops receiving (inbox closed — messages
// sent to it vanish as at a dead NIC), and every crash point in its
// execution path aborts. Idempotent.
func (w *Worker) crash(reason string) {
	if w.dead.Swap(true) {
		return
	}
	w.rt.Trace.Eventf(w.rt.Clock.Now(), "worker:"+w.node, "crashed: %s", reason)
	w.endpoint().Close()
}

// checkCrashed aborts the current execution if the worker has fail-stopped.
// Commands hit it transparently through the Ctx data/compute/send methods.
func (w *Worker) checkCrashed() {
	if w.dead.Load() {
		panic(crashSignal{})
	}
}

// setBusy flips the busy flag reported in heartbeats. Worker-local mutators
// are epoch-parameterized: an execution unwinding from a fenced incarnation
// (crashed, then respawned before the unwind finished) must not scribble on
// the new incarnation's state, so a stale epoch makes them no-ops.
func (w *Worker) setBusy(epoch int, b bool) {
	w.mu.Lock()
	if epoch == w.epoch {
		w.busy = b
	}
	w.mu.Unlock()
}

// beginJournal arms the heartbeat watermark piggyback for one execution.
func (w *Worker) beginJournal(epoch int, reqID uint64, rank, attempt int) {
	w.mu.Lock()
	if epoch == w.epoch {
		w.jreq, w.jrank, w.jattempt = reqID, rank, attempt
		w.jmarks = w.jmarks[:0]
	}
	w.mu.Unlock()
}

// markDone appends one completed span item to the published watermark.
func (w *Worker) markDone(epoch, item int) {
	w.mu.Lock()
	if epoch == w.epoch {
		w.jmarks = append(w.jmarks, item)
	}
	w.mu.Unlock()
}

// clearJournal disarms the watermark piggyback when an execution ends.
func (w *Worker) clearJournal(epoch int) {
	w.mu.Lock()
	if epoch == w.epoch {
		w.jreq, w.jrank, w.jattempt = 0, 0, 0
		w.jmarks = w.jmarks[:0]
	}
	w.mu.Unlock()
}

// start creates the worker's data proxy — deferred to runtime start so the
// proxy's loading strategies see every registered device — and spawns the
// actor loop plus the heartbeat actor.
func (w *Worker) start() {
	proxy := w.rt.DMS.NewProxy(w.node, w.pf)
	w.mu.Lock()
	w.proxy = proxy
	ep, epoch := w.ep, w.epoch
	w.mu.Unlock()
	w.rt.Clock.Go(func() { w.runLoop(ep, epoch) })
	if w.rt.cfg.FT.HeartbeatEvery > 0 {
		w.rt.Clock.Go(func() { w.heartbeatLoop(ep, epoch) })
	}
}

// respawn reboots a crashed worker as a fresh incarnation: a new epoch, a
// new NIC (endpoint), a new DMS proxy, and fresh actor loops. The new
// incarnation announces itself to the scheduler with a join handshake and
// re-warms its block cache from the DMS hot set off the request path.
// respawn never parks — callers hold the runtime's stop lock.
func (w *Worker) respawn() {
	ep := w.rt.Net.Replace(w.node)
	w.rt.DMS.DropProxy(w.node)
	proxy := w.rt.DMS.NewProxy(w.node, w.pf)
	w.mu.Lock()
	w.epoch++
	epoch := w.epoch
	w.ep = ep
	w.proxy = proxy
	w.busy = false
	w.jreq, w.jrank, w.jattempt = 0, 0, 0
	w.jmarks = w.jmarks[:0]
	w.mu.Unlock()
	w.dead.Store(false)
	w.stopped.Store(false)
	w.rt.Trace.Eventf(w.rt.Clock.Now(), "worker:"+w.node, "rebooted as epoch %d", epoch)
	w.rt.Clock.Go(func() { w.runLoop(ep, epoch) })
	if w.rt.cfg.FT.HeartbeatEvery > 0 {
		w.rt.Clock.Go(func() { w.heartbeatLoop(ep, epoch) })
	}
	w.rt.Clock.Go(func() {
		// Join handshake (from an actor: sends park), then cache re-warm:
		// prefetch the cluster-wide hot set so the rejoined rank's first
		// demand loads hit warm cache instead of cold storage.
		ep.Send("scheduler", comm.Message{Kind: "join", Body: &Report{Worker: w.node, Epoch: epoch}})
		for _, id := range w.rt.DMS.HotSet() {
			if w.dead.Load() {
				return
			}
			proxy.Prefetch(id)
		}
	})
}

// heartbeatLoop reports liveness (and idle/busy state) to the scheduler
// every HeartbeatEvery until shutdown, crash, or supersession by a newer
// incarnation. Send errors are expected during teardown (scheduler inbox
// already closed) and ignored.
func (w *Worker) heartbeatLoop(ep *comm.Endpoint, epoch int) {
	every := w.rt.cfg.FT.HeartbeatEvery
	for {
		w.rt.Clock.Sleep(every)
		if w.stopped.Load() || w.dead.Load() {
			return
		}
		w.mu.Lock()
		if w.epoch != epoch {
			w.mu.Unlock()
			return // a newer incarnation heartbeats now
		}
		hb := &Report{Worker: w.node, Epoch: epoch, Idle: !w.busy}
		if w.jreq != 0 {
			// Piggyback the cumulative completed-item watermark of the
			// journaled execution in flight, copied: jmarks keeps growing.
			hb.MarkReq, hb.Rank, hb.Attempt = w.jreq, w.jrank, w.jattempt
			hb.Marks = append([]int(nil), w.jmarks...)
		}
		w.mu.Unlock()
		ep.Send("scheduler", comm.Message{Kind: "hb", Body: hb})
	}
}

func (w *Worker) runLoop(ep *comm.Endpoint, epoch int) {
	for {
		m, ok := ep.Recv()
		if !ok {
			// Inbox closed: this incarnation crashed (dead is already set) or
			// closed its own endpoint after a shutdown message (stopped is
			// already set). Deliberately no stopped.Store here — stopped
			// means a *clean* stop, and marking it on a crash would make the
			// incarnation unrevivable before the recovery timer ever fires.
			return
		}
		if w.dead.Load() || w.Epoch() != epoch {
			continue // drain and discard: a dead incarnation processes nothing
		}
		switch m.Kind {
		case "shutdown":
			w.stopped.Store(true)
			ep.Close()
			return
		case "start":
			if st, ok := m.Body.(*Start); ok {
				w.execute(ep, epoch, st)
			}
		default:
			// Stray message outside any command (e.g. a late partial after
			// an error path): dropped.
		}
	}
}

// execute runs one command as a member of a work group. A crashSignal panic
// (fail-stop at a crash point) unwinds silently: a dead worker reports
// nothing; detection and recovery are the scheduler's job.
func (w *Worker) execute(ep *comm.Endpoint, epoch int, st *Start) {
	defer func() {
		if r := recover(); r != nil {
			if _, isCrash := r.(crashSignal); isCrash {
				return
			}
			panic(r)
		}
	}()
	w.setBusy(epoch, true)
	defer w.setBusy(epoch, false)
	defer w.clearJournal(epoch)

	req := st.Req
	ds := w.rt.Datasets[req.Dataset]
	cmd, found := w.rt.Lookup(req.Command)

	w.mu.Lock()
	proxy := w.proxy
	w.mu.Unlock()
	ctx := &Ctx{
		rt:        w.rt,
		worker:    w,
		ep:        ep,
		epoch:     epoch,
		proxy:     proxy,
		Req:       req,
		Rank:      st.Rank,
		GroupSize: len(st.Group),
		Group:     st.Group,
		Dataset:   ds,
		Model:     w.rt.Model,
		attempt:   st.Attempt,
		span:      st.Span,
		hasSpan:   st.HasSpan,
	}

	w.checkCrashed()
	var partial *mesh.Mesh
	var runErr error
	switch {
	case !found:
		runErr = fmt.Errorf("core: unknown command %q", req.Command)
	case ds == nil:
		runErr = fmt.Errorf("core: unknown dataset %q", req.Dataset)
	default:
		partial, runErr = cmd.Run(ctx)
	}
	if partial == nil {
		partial = &mesh.Mesh{}
	}
	w.checkCrashed()

	master := st.Group[0]
	if st.Rank != 0 {
		// Send the partial (or the error) to the master for gathering.
		rep := &Report{Worker: w.node, Rank: st.Rank, Attempt: st.Attempt}
		msg := comm.Message{Kind: "wpartial", Command: req.Command, ReqID: req.ReqID, Body: rep}
		if runErr != nil {
			msg.Kind = "werror"
			rep.Err = runErr.Error()
		} else {
			msg.Payload = partial.EncodeBinary()
		}
		sendStart := w.rt.Clock.Now()
		if err := ep.Send(master, msg); err != nil {
			// The master is gone; the scheduler will restart the request.
			w.rt.Trace.Eventf(w.rt.Clock.Now(), "worker:"+w.node,
				"req %d: %s to master %s failed: %v", req.ReqID, msg.Kind, master, err)
		}
		ctx.probes.Send += w.rt.Clock.Now() - sendStart
	} else {
		w.masterGather(ctx, partial, runErr)
	}
	w.sendDone(ctx, runErr)
}

// masterGather collects the other workers' partials, merges everything into
// one package and sends it to the visualization client — or an error message
// when any member failed. Each rank is accepted once per attempt: after a
// failover re-runs a rank whose first incarnation already delivered (crash
// between its wpartial and its wdone), the duplicate is dropped, so the
// merged output is identical to a fault-free run. A "wfail" from the
// scheduler stands in for a rank that is not coming; a muted wfail
// additionally suppresses the client send — the scheduler has already told
// the client the request's fate and only wants the gather unwound.
func (w *Worker) masterGather(ctx *Ctx, own *mesh.Mesh, ownErr error) {
	// Rank 0's own partial is dead after this call, so it seeds the merge
	// directly instead of being copied into a fresh mesh.
	merged := own
	var firstErr error
	muted := false
	if ownErr != nil {
		firstErr = ownErr
	}
	seen := make([]bool, ctx.GroupSize)
	seen[0] = true
	for received := 1; received < ctx.GroupSize; {
		m, ok := ctx.ep.Recv()
		if !ok {
			w.checkCrashed()
			return // shutdown mid-gather: nothing sensible left to send
		}
		w.checkCrashed()
		r, isReport := m.Body.(*Report)
		switch m.Kind {
		case "wpartial", "werror", "wfail":
			if !isReport || m.ReqID != ctx.Req.ReqID || r.Attempt != ctx.attempt {
				continue // stale message from an aborted request or attempt
			}
			if r.Rank < 1 || r.Rank >= ctx.GroupSize || seen[r.Rank] {
				continue // out of range, or this rank already delivered
			}
			seen[r.Rank] = true
			received++
			if m.Kind == "wfail" && r.Mute {
				muted = true
			}
			if m.Kind != "wpartial" {
				if firstErr == nil {
					who := r.Worker
					if who == "" {
						who = "rank " + strconv.Itoa(r.Rank)
					}
					firstErr = fmt.Errorf("%s: %s", who, r.Err)
				}
				continue
			}
			part, err := mesh.DecodeBinary(m.Payload)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("core: corrupt partial from %s: %w", r.Worker, err)
				}
				continue
			}
			ctx.Charge(ctx.Model.MergeCost(part.NumTriangles()))
			merged.Append(part)
		default:
			// Commands for this worker cannot arrive while it is busy; drop.
		}
	}
	if muted {
		return // the scheduler already reported this request's fate
	}
	out := comm.Message{
		Command: ctx.Req.Command,
		ReqID:   ctx.Req.ReqID,
		Final:   true,
		Params: map[string]string{
			"worker":  w.node,
			"attempt": strconv.Itoa(ctx.attempt),
		},
	}
	if firstErr != nil {
		out.Kind = "error"
		out.Params["error"] = firstErr.Error()
	} else {
		out.Kind = "result"
		out.Payload = merged.EncodeBinary()
	}
	sendStart := w.rt.Clock.Now()
	if err := ctx.ep.Send(ctx.ClientEndpoint(), out); err != nil {
		w.rt.Trace.Eventf(w.rt.Clock.Now(), "worker:"+w.node,
			"req %d: %s to client %s failed: %v", ctx.Req.ReqID, out.Kind, ctx.ClientEndpoint(), err)
	}
	ctx.probes.Send += w.rt.Clock.Now() - sendStart
}

// sendDone reports this worker's probes to the scheduler, freeing it for the
// next work group.
func (w *Worker) sendDone(ctx *Ctx, runErr error) {
	w.checkCrashed()
	done := &Report{
		Worker:   w.node,
		Epoch:    ctx.epoch,
		Rank:     ctx.Rank,
		Attempt:  ctx.attempt,
		Probes:   ctx.probes,
		Streams:  ctx.streams,
		Uncached: ctx.uncached,
	}
	if runErr != nil {
		done.Err = runErr.Error()
	}
	if err := ctx.ep.Send("scheduler", comm.Message{Kind: "wdone", ReqID: ctx.Req.ReqID, Body: done}); err != nil {
		w.rt.Trace.Eventf(w.rt.Clock.Now(), "worker:"+w.node,
			"req %d: wdone send failed: %v", ctx.Req.ReqID, err)
	}
}
