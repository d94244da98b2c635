package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"viracocha/internal/comm"
	"viracocha/internal/dms"
	"viracocha/internal/grid"
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
	// pfIndexField, when non-empty, is the scalar field whose min/max index
	// rides along with prefetched blocks; pfGradIndex does the same for the
	// vortex-skip gradient index (setRideAlong).
	pfIndexField string
	pfGradIndex  bool
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

// setRideAlong says what to build beside blocks that land via prefetch from
// now on (Ctx.RideAlong); execute clears it, so the ride-along follows the
// request on the worker, not the last request that ever asked for one.
func (w *Worker) setRideAlong(field string, grad bool) {
	w.mu.Lock()
	w.pfIndexField, w.pfGradIndex = field, grad
	w.mu.Unlock()
}

// indexPrefetched runs in the prefetch goroutine after a speculatively
// loaded block entered the cache: it builds the block's min/max index
// (and/or the vortex-skip gradient index) and caches it as a derived
// entity, charging the build to the background goroutine's virtual time so
// the speculative work overlaps the demand path exactly like the load
// itself.
func (w *Worker) indexPrefetched(b *grid.Block) {
	w.mu.Lock()
	field := w.pfIndexField
	gradIdx := w.pfGradIndex
	proxy := w.proxy
	w.mu.Unlock()
	if field != "" {
		if vals, ok := b.Scalars[field]; ok {
			name := dms.IndexItem(b.ID, field)
			if !proxy.HasDerived(name) {
				w.rt.Clock.Sleep(w.rt.Cost.IndexCost(b.NumNodes()))
				proxy.PutDerived(name, grid.BuildMinMax(b, field, vals))
			}
		}
	}
	if gradIdx {
		name := dms.GradIndexItem(b.ID)
		if !proxy.HasDerived(name) {
			w.rt.Clock.Sleep(w.rt.Cost.GradCost(b.NumNodes()) + w.rt.Cost.IndexCost(b.NumNodes()))
			proxy.PutDerived(name, grid.BuildGradIndex(b))
		}
	}
}

// Proxy exposes the worker's DMS proxy (tests and cache-priming).
func (w *Worker) Proxy() *dms.Proxy {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.proxy
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
	proxy.OnPrefetched = w.indexPrefetched
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
	proxy.OnPrefetched = w.indexPrefetched
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
		ep.Send("scheduler", comm.Message{
			Kind:   "join",
			Params: map[string]string{"worker": w.node, "wepoch": strconv.Itoa(epoch)},
		})
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
		state := "idle"
		w.mu.Lock()
		if w.epoch != epoch {
			w.mu.Unlock()
			return // a newer incarnation heartbeats now
		}
		if w.busy {
			state = "busy"
		}
		jreq, jrank, jattempt := w.jreq, w.jrank, w.jattempt
		var jmarks string
		if jreq != 0 {
			jmarks = comm.EncodeIntList(w.jmarks)
		}
		w.mu.Unlock()
		hb := comm.Message{
			Kind: "hb",
			Params: map[string]string{
				"worker": w.node, "state": state,
				"wepoch": strconv.Itoa(epoch),
			},
		}
		if jreq != 0 {
			// Piggyback the cumulative completed-item watermark of the
			// journaled execution in flight.
			hb.Params["jreq"] = strconv.FormatUint(jreq, 10)
			hb.Params["jrank"] = strconv.Itoa(jrank)
			hb.Params["jattempt"] = strconv.Itoa(jattempt)
			hb.Params["jmarks"] = jmarks
		}
		ep.Send("scheduler", hb)
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
			w.execute(ep, epoch, m)
		default:
			// Stray message outside any command (e.g. a late partial after
			// an error path): dropped.
		}
	}
}

// execute runs one command as a member of a work group. A crashSignal panic
// (fail-stop at a crash point) unwinds silently: a dead worker reports
// nothing; detection and recovery are the scheduler's job.
func (w *Worker) execute(ep *comm.Endpoint, epoch int, start comm.Message) {
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
	w.setRideAlong("", false)

	reqID := start.ReqID
	rank := start.IntParam("rank", 0)
	attempt := start.IntParam("attempt", 0)
	group := strings.Split(start.Params["group"], ",")
	ds := w.rt.Datasets[start.Params["dataset"]]
	cmd, found := w.rt.Lookup(start.Command)

	w.mu.Lock()
	proxy := w.proxy
	w.mu.Unlock()
	ctx := &Ctx{
		rt:        w.rt,
		worker:    w,
		ep:        ep,
		epoch:     epoch,
		proxy:     proxy,
		Req:       start,
		Rank:      rank,
		GroupSize: len(group),
		Group:     group,
		Dataset:   ds,
		Cost:      w.rt.Cost,
		attempt:   attempt,
	}

	w.checkCrashed()
	var partial *mesh.Mesh
	var runErr error
	switch {
	case !found:
		runErr = fmt.Errorf("core: unknown command %q", start.Command)
	case ds == nil:
		runErr = fmt.Errorf("core: unknown dataset %q", start.Params["dataset"])
	default:
		partial, runErr = cmd.Run(ctx)
	}
	if partial == nil {
		partial = &mesh.Mesh{}
	}
	w.checkCrashed()

	master := group[0]
	if rank != 0 {
		// Send the partial (or the error) to the master for gathering.
		msg := comm.Message{
			Kind:    "wpartial",
			Command: start.Command,
			ReqID:   reqID,
			Params: map[string]string{
				"worker":  w.node,
				"rank":    strconv.Itoa(rank),
				"attempt": strconv.Itoa(attempt),
			},
		}
		if runErr != nil {
			msg.Kind = "werror"
			msg.Params["error"] = runErr.Error()
		} else {
			msg.Payload = partial.EncodeBinary()
		}
		sendStart := w.rt.Clock.Now()
		if err := ep.Send(master, msg); err != nil {
			// The master is gone; the scheduler will restart the request.
			w.rt.Trace.Eventf(w.rt.Clock.Now(), "worker:"+w.node,
				"req %d: %s to master %s failed: %v", reqID, msg.Kind, master, err)
		}
		ctx.probes.Send += w.rt.Clock.Now() - sendStart
	} else {
		w.masterGather(ctx, partial, runErr)
	}
	w.sendDone(ctx, reqID, runErr)
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
		switch m.Kind {
		case "wpartial", "werror", "wfail":
			if m.ReqID != ctx.Req.ReqID || m.IntParam("attempt", 0) != ctx.attempt {
				continue // stale message from an aborted request or attempt
			}
			rank := m.IntParam("rank", -1)
			if rank < 1 || rank >= ctx.GroupSize || seen[rank] {
				continue // out of range, or this rank already delivered
			}
			seen[rank] = true
			received++
			if m.Kind == "wfail" && m.Params["mute"] == "1" {
				muted = true
			}
			if m.Kind != "wpartial" {
				if firstErr == nil {
					who := m.Params["worker"]
					if who == "" {
						who = "rank " + strconv.Itoa(rank)
					}
					firstErr = fmt.Errorf("%s: %s", who, m.Params["error"])
				}
				continue
			}
			part, err := mesh.DecodeBinary(m.Payload)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("core: corrupt partial from %s: %w", m.Params["worker"], err)
				}
				continue
			}
			ctx.Charge(ctx.Cost.MergeCost(part.NumTriangles()))
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
func (w *Worker) sendDone(ctx *Ctx, reqID uint64, runErr error) {
	w.checkCrashed()
	p := ctx.probes
	params := map[string]string{
		"worker":     w.node,
		"wepoch":     strconv.Itoa(ctx.epoch),
		"rank":       strconv.Itoa(ctx.Rank),
		"attempt":    strconv.Itoa(ctx.attempt),
		"compute_ns": strconv.FormatInt(p.Compute.Nanoseconds(), 10),
		"read_ns":    strconv.FormatInt(p.Read.Nanoseconds(), 10),
		"send_ns":    strconv.FormatInt(p.Send.Nanoseconds(), 10),
		"streams":    strconv.Itoa(ctx.streams),
		"frames":     strconv.Itoa(ctx.frames),
		"uncached":   strconv.Itoa(ctx.uncached),
	}
	if runErr != nil {
		params["error"] = runErr.Error()
	}
	if err := ctx.ep.Send("scheduler", comm.Message{
		Kind:   "wdone",
		ReqID:  reqID,
		Params: params,
	}); err != nil {
		w.rt.Trace.Eventf(w.rt.Clock.Now(), "worker:"+w.node,
			"req %d: wdone send failed: %v", reqID, err)
	}
}
