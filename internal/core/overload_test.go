package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/dataset"
	"viracocha/internal/dms"
	"viracocha/internal/faults"
	"viracocha/internal/vclock"
)

// overloadRuntime builds a fault-capable runtime with the given overload
// tuning and DMS memory budget.
func overloadRuntime(t *testing.T, v vclock.Clock, workers int, plan *faults.Plan, ol OverloadConfig, budget int64) *Runtime {
	t.Helper()
	if plan == nil {
		plan = &faults.Plan{Seed: 1}
	}
	return newFaultRuntime(t, v, workers, plan, func(c *Config) {
		c.Overload = ol
		c.DMS.MemBudget = budget
	})
}

func tinyParams(extra ...string) map[string]string {
	p := map[string]string{"dataset": "tiny", "workers": "1"}
	for i := 0; i+1 < len(extra); i += 2 {
		p[extra[i]] = extra[i+1]
	}
	return p
}

// --- msgRing -------------------------------------------------------------

func TestMsgRingFIFO(t *testing.T) {
	var r msgRing
	for i := 0; i < 10; i++ {
		r.push(comm.Message{ReqID: uint64(i)}, 0)
	}
	for i := 0; i < 10; i++ {
		if r.len() != 10-i {
			t.Fatalf("len = %d, want %d", r.len(), 10-i)
		}
		if got := r.peek().ReqID; got != uint64(i) {
			t.Fatalf("peek = %d, want %d", got, i)
		}
		if got := r.pop().ReqID; got != uint64(i) {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	if r.len() != 0 {
		t.Fatalf("drained ring len = %d", r.len())
	}
}

func TestMsgRingZeroesPoppedSlots(t *testing.T) {
	var r msgRing
	m := comm.Message{Payload: []byte{1}, Params: map[string]string{"k": "v"}}
	r.push(m, 0)
	r.push(m, 0)
	r.pop()
	// The popped slot must not pin the payload until the queue drains.
	if r.items[0].Payload != nil || r.items[0].Params != nil {
		t.Fatal("popped slot still references its payload")
	}
}

// TestMsgRingReclaimsBurstMemory is the regression test for the old
// `s.pending = s.pending[1:]` queue: a burst's backing array (and every
// payload it referenced) stayed reachable for as long as the queue was
// non-empty. The ring must drop an oversized array once drained.
func TestMsgRingReclaimsBurstMemory(t *testing.T) {
	var r msgRing
	for i := 0; i < 4*ringKeepCap; i++ {
		r.push(comm.Message{ReqID: uint64(i), Payload: make([]byte, 1024)}, 0)
	}
	for r.len() > 0 {
		r.pop()
	}
	if r.items != nil {
		t.Fatalf("drained ring kept a cap-%d backing array", cap(r.items))
	}
	// A small steady-state queue keeps its array (no realloc churn).
	var s msgRing
	for i := 0; i < 4; i++ {
		s.push(comm.Message{}, 0)
	}
	for s.len() > 0 {
		s.pop()
	}
	if s.items == nil || cap(s.items) == 0 {
		t.Fatal("small drained ring dropped its backing array")
	}
}

func TestMsgRingCompactsDeadPrefix(t *testing.T) {
	var r msgRing
	for i := 0; i < 100; i++ {
		r.push(comm.Message{ReqID: uint64(i)}, 0)
	}
	next := uint64(0)
	// Steady-state churn with a standing backlog: the head index must not
	// let the backing array grow without bound.
	for i := 0; i < 10000; i++ {
		r.push(comm.Message{ReqID: uint64(100 + i)}, 0)
		if got := r.pop().ReqID; got != next {
			t.Fatalf("pop = %d, want %d", got, next)
		}
		next++
	}
	if cap(r.items) > 1024 {
		t.Fatalf("backing array grew to cap %d under steady-state churn", cap(r.items))
	}
}

func TestMsgRingFilter(t *testing.T) {
	var r msgRing
	for i := 0; i < 6; i++ {
		r.push(comm.Message{ReqID: uint64(i)}, 0)
	}
	r.pop() // head > 0: filter must only consider the live region
	dropped := r.filter(func(m comm.Message) bool { return m.ReqID%2 == 0 })
	if len(dropped) != 3 || dropped[0].ReqID != 1 || dropped[1].ReqID != 3 || dropped[2].ReqID != 5 {
		t.Fatalf("dropped = %+v", dropped)
	}
	if r.len() != 2 || r.pop().ReqID != 2 || r.pop().ReqID != 4 {
		t.Fatal("filter corrupted the surviving queue order")
	}
}

// --- admission control ---------------------------------------------------

func TestAdmissionQueueCapRejects(t *testing.T) {
	v := vclock.NewVirtual()
	rt := overloadRuntime(t, v, 1, nil, OverloadConfig{MaxQueue: 2}, 0)
	var rejErr error
	v.Go(func() {
		cl := NewClient(rt)
		running, _ := cl.Submit("test.crunch", tinyParams()) // occupies the only worker
		q1, _ := cl.Submit("test.echo", tinyParams())        // queued
		q2, _ := cl.Submit("test.echo", tinyParams())        // queued: cap reached
		over, _ := cl.Submit("test.echo", tinyParams())      // rejected
		_, rejErr = cl.Collect(over)
		for _, id := range []uint64{running, q1, q2} {
			if _, err := cl.Collect(id); err != nil {
				t.Errorf("admitted request %d failed: %v", id, err)
			}
		}
		rt.Shutdown()
	})
	v.Wait()
	if !errors.Is(rejErr, ErrOverloaded) {
		t.Fatalf("over-cap error = %v, want ErrOverloaded", rejErr)
	}
	var oe *OverloadedError
	if !errors.As(rejErr, &oe) {
		t.Fatalf("error %v does not unwrap to *OverloadedError", rejErr)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if !strings.Contains(oe.Reason, "queue full") {
		t.Errorf("Reason = %q, want queue-full", oe.Reason)
	}
	if st := rt.Sched.OverloadStats(); st.RejectedQueue != 1 || st.RejectedQuota != 0 {
		t.Errorf("counters = %+v, want exactly one queue rejection", st)
	}
}

func TestSessionQuotaIsolatesSessions(t *testing.T) {
	v := vclock.NewVirtual()
	rt := overloadRuntime(t, v, 1, nil, OverloadConfig{MaxQueue: 16, SessionQuota: 2}, 0)
	v.Go(func() {
		cl1 := NewClient(rt)
		cl2 := NewClient(rt)
		a, _ := cl1.Submit("test.crunch", tinyParams()) // active
		b, _ := cl1.Submit("test.echo", tinyParams())   // queued: client1 at quota
		c, _ := cl1.Submit("test.echo", tinyParams())   // rejected
		d, _ := cl2.Submit("test.echo", tinyParams())   // different session: admitted
		_, errC := cl1.Collect(c)
		if !errors.Is(errC, ErrOverloaded) {
			t.Errorf("over-quota error = %v, want ErrOverloaded", errC)
		}
		var oe *OverloadedError
		if errors.As(errC, &oe) && !strings.Contains(oe.Reason, "quota") {
			t.Errorf("Reason = %q, want quota", oe.Reason)
		}
		for _, id := range []uint64{a, b} {
			if _, err := cl1.Collect(id); err != nil {
				t.Errorf("admitted request %d failed: %v", id, err)
			}
		}
		if _, err := cl2.Collect(d); err != nil {
			t.Errorf("other session's request failed: %v", err)
		}
		// Retired requests return their quota slots: resubmission is admitted.
		if _, err := cl1.Run("test.echo", tinyParams()); err != nil {
			t.Errorf("post-retirement submission rejected: %v", err)
		}
		rt.Shutdown()
	})
	v.Wait()
	if st := rt.Sched.OverloadStats(); st.RejectedQuota != 1 || st.RejectedQueue != 0 {
		t.Errorf("counters = %+v, want exactly one quota rejection", st)
	}
}

func TestQuotaReleaseOnDisconnect(t *testing.T) {
	v := vclock.NewVirtual()
	rt := overloadRuntime(t, v, 1, nil, OverloadConfig{MaxQueue: 16, SessionQuota: 2}, 0)
	var purged uint64
	v.Go(func() {
		cl := NewClient(rt)
		sp := func() map[string]string { return tinyParams("session", "s1") }
		a, _ := cl.Submit("test.crunch", sp()) // active
		b, _ := cl.Submit("test.echo", sp())   // queued: session at quota
		c, _ := cl.Submit("test.echo", sp())   // rejected
		purged = b
		if _, err := cl.Collect(c); !errors.Is(err, ErrOverloaded) {
			t.Errorf("over-quota error = %v, want ErrOverloaded", err)
		}
		// The TCP bridge notices the connection died: the queued request is
		// purged and its quota slot freed immediately.
		cl.ep.Send("scheduler", comm.Message{Kind: "disconnect", Params: map[string]string{"session": "s1"}})
		d, _ := cl.Submit("test.echo", sp())
		if _, err := cl.Collect(d); err != nil {
			t.Errorf("post-disconnect submission rejected: %v", err)
		}
		cl.Collect(a) // the active request retires on its own schedule
		// With a's slot back too, the session is fully reusable.
		if _, err := cl.Run("test.echo", sp()); err != nil {
			t.Errorf("submission after full drain rejected: %v", err)
		}
		rt.Shutdown()
	})
	v.Wait()
	if _, ok := rt.Sched.Stats(purged); ok {
		t.Error("purged queued request has stats: it ran despite the disconnect")
	}
	if st := rt.Sched.OverloadStats(); st.RejectedQuota != 1 {
		t.Errorf("counters = %+v, want exactly one quota rejection", st)
	}
}

// TestQuotaSurvivesRetry pins the interaction between admission control and
// the PR-1 recovery machinery: a crashed rank's redispatch must not pass
// through admission (the request already holds its slot), and the slot is
// released exactly once when the retried request finally retires.
func TestQuotaSurvivesRetry(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 7}).CrashAt("w1", 1010*time.Millisecond)
	rt := newFaultRuntime(t, v, 4, plan, func(c *Config) {
		c.Overload = OverloadConfig{MaxQueue: 8, SessionQuota: 1}
	})
	var aID, cID uint64
	v.Go(func() {
		cl := NewClient(rt)
		p := tinyParams("session", "s1")
		p["workers"] = "4"
		a, _ := cl.Submit("test.crunch", p)
		b, _ := cl.Submit("test.echo", tinyParams("session", "s1"))
		if _, err := cl.Collect(b); !errors.Is(err, ErrOverloaded) {
			t.Errorf("mid-flight submission error = %v, want ErrOverloaded", err)
		}
		resA, errA := cl.Collect(a)
		if errA != nil {
			t.Errorf("crashed-and-retried request failed: %v", errA)
		}
		if resA.Merged.NumTriangles() != 4 {
			t.Errorf("retried request produced %d triangles, want 4", resA.Merged.NumTriangles())
		}
		// The slot came back exactly once: the next request is admitted, and
		// runs degraded on the 3 survivors.
		resC, errC := cl.Run("test.crunch", p)
		if errC != nil {
			t.Errorf("post-retry submission rejected: %v", errC)
		}
		aID, cID = a, resC.ReqID
		rt.Shutdown()
	})
	v.Wait()
	stA, _ := rt.Sched.Stats(aID)
	stC, _ := rt.Sched.Stats(cID)
	if stA.Retries == 0 {
		t.Error("crashed request recorded no retries")
	}
	if !stC.Degraded {
		t.Error("post-crash request not marked degraded despite a dead worker")
	}
	if st := rt.Sched.OverloadStats(); st.RejectedQuota != 1 || st.RejectedQueue != 0 {
		t.Errorf("counters = %+v, want exactly one quota rejection", st)
	}
}

// --- streaming backpressure ----------------------------------------------

func runStreamScenario(t *testing.T, window int, consumerDelay time.Duration) (*RunResult, error, RequestStats, time.Duration) {
	t.Helper()
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 1}).SlowConsumer("client1", consumerDelay)
	rt := newFaultRuntime(t, v, 1, plan, func(c *Config) {
		c.Overload = OverloadConfig{StreamWindow: window} // no deadline: pure backpressure
	})
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		res, err = cl.Run("test.stream", tinyParams("packets", "4"))
		rt.Shutdown()
	})
	v.Wait()
	st, ok := rt.Sched.Stats(res.ReqID)
	if !ok {
		t.Fatalf("no stats for req %d", res.ReqID)
	}
	return res, err, st, v.Now()
}

// TestStreamWindowPacesProducer: with a 2s-per-packet consumer, an
// unthrottled producer races ahead (4 packets of 1s compute, done at ~4s)
// while a 1-packet window paces it to the consumer's ack rate (~7s). Both
// deliver the same packets.
func TestStreamWindowPacesProducer(t *testing.T) {
	resU, errU, stU, _ := runStreamScenario(t, 0, 2*time.Second)
	resP, errP, stP, _ := runStreamScenario(t, 1, 2*time.Second)
	if errU != nil || errP != nil {
		t.Fatalf("stream runs failed: %v / %v", errU, errP)
	}
	if resU.Partials != 4 || resP.Partials != 4 {
		t.Fatalf("partials = %d / %d, want 4", resU.Partials, resP.Partials)
	}
	if meshSignature(resU.Merged) != meshSignature(resP.Merged) {
		t.Error("flow control changed the merged result")
	}
	if stU.End > 4500*time.Millisecond {
		t.Errorf("unthrottled producer finished at %v, want ≈4s", stU.End)
	}
	if stP.End < 6500*time.Millisecond {
		t.Errorf("windowed producer finished at %v, want ≥6.5s (paced by acks)", stP.End)
	}
}

func TestSlowConsumerIsCancelled(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 1}).SlowConsumer(faults.Any, time.Hour)
	rt := newFaultRuntime(t, v, 1, plan, func(c *Config) {
		c.Overload = OverloadConfig{StreamWindow: 1, SlowConsumerAfter: 2 * time.Second}
	})
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		res, err = cl.Run("test.stream", tinyParams("packets", "4"))
		rt.Shutdown()
	})
	v.Wait()
	if err == nil || !strings.Contains(err.Error(), "slow consumer") {
		t.Fatalf("err = %v, want a slow-consumer cancellation", err)
	}
	st, ok := rt.Sched.Stats(res.ReqID)
	if !ok {
		t.Fatal("no stats recorded")
	}
	if st.Errors == 0 {
		t.Error("cancelled request recorded no error")
	}
	// The producer gave up 2s into its stall, not at the wedged client's
	// hour-long pace.
	if st.End > 10*time.Second {
		t.Errorf("producer held until %v: the deadline did not fire", st.End)
	}
	found := false
	for _, e := range rt.Trace.Events() {
		if strings.Contains(e.Msg, "slow consumer") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no slow-consumer trace event recorded")
	}
}

// --- DMS memory budget ---------------------------------------------------

// TestMemBudgetUncachedAccounting: with a one-block budget shared by two
// proxies, the losing proxy serves its demand loads uncached and the
// request's stats record the degradation; the budget's peak never exceeds
// the limit.
func TestMemBudgetUncachedAccounting(t *testing.T) {
	v := vclock.NewVirtual()
	one := dataset.Tiny().Generate(0, 0).SizeBytes()
	rt := overloadRuntime(t, v, 2, nil, OverloadConfig{}, one)
	var res *RunResult
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		p := tinyParams()
		p["workers"] = "2"
		res, err = cl.Run("test.load", p)
		// A second request drains the workers' wdone reports before Stats.
		cl.Run("test.echo", tinyParams())
		rt.Shutdown()
	})
	v.Wait()
	if err != nil {
		t.Fatal(err)
	}
	st, ok := rt.Sched.Stats(res.ReqID)
	if !ok {
		t.Fatal("no stats recorded")
	}
	if st.Uncached == 0 {
		t.Error("no uncached-path accounting despite a one-block budget across two proxies")
	}
	b := rt.DMS.Budget().Stats()
	if b.Limit != one {
		t.Fatalf("budget limit = %d, want %d", b.Limit, one)
	}
	if b.Peak == 0 || b.Peak > b.Limit {
		t.Errorf("budget peak = %d, want in (0, %d]", b.Peak, b.Limit)
	}
}

// --- storage integrity, end to end ---------------------------------------

func TestCorruptReadRecoversByRereading(t *testing.T) {
	v := vclock.NewVirtual()
	plan := &faults.Plan{Seed: 3}
	if err := plan.ParseRule("corrupt:tiny:-1:-1:1"); err != nil {
		t.Fatal(err)
	}
	rt := newFaultRuntime(t, v, 1, plan, nil)
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		_, err = cl.Run("test.load", tinyParams())
		rt.Shutdown()
	})
	v.Wait()
	if err != nil {
		t.Fatalf("one corrupted read must be recovered, got %v", err)
	}
	ds := rt.AnyDevice().Stats()
	if ds.CorruptReads != 1 || ds.Rereads != 1 {
		t.Errorf("device stats = %+v, want CorruptReads=1 Rereads=1", ds)
	}
}

func TestPersistentCorruptionFailsTheLoad(t *testing.T) {
	v := vclock.NewVirtual()
	plan := &faults.Plan{Seed: 3}
	if err := plan.ParseRule("corrupt:tiny:-1:-1:-1"); err != nil {
		t.Fatal(err)
	}
	rt := newFaultRuntime(t, v, 1, plan, nil)
	var err error
	v.Go(func() {
		cl := NewClient(rt)
		_, err = cl.Run("test.load", tinyParams())
		rt.Shutdown()
	})
	v.Wait()
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("err = %v, want a checksum failure after the re-read", err)
	}
	ds := rt.AnyDevice().Stats()
	if ds.CorruptReads < 2 || ds.Rereads == 0 {
		t.Errorf("device stats = %+v, want the re-read attempted and failed", ds)
	}
}

// --- the combined overload scenario --------------------------------------

type overloadOutcome struct {
	now        time.Duration
	counters   OverloadCounters
	budget     dms.BudgetStats
	sigs       [4]string
	streamErr  string
	rejReasons [2]string
}

// runOverloadScenario drives the acceptance scenario: one worker, a 3-deep
// queue, 2-request session quotas, a one-packet stream window with a 2s
// slow-consumer deadline and a two-block DMS budget. client2 wedges the pool
// with a stream it never consumes; client1 floods past its quota; client2's
// second burst overflows the queue.
func runOverloadScenario(t *testing.T) overloadOutcome {
	t.Helper()
	v := vclock.NewVirtual()
	one := dataset.Tiny().Generate(0, 0).SizeBytes()
	plan := (&faults.Plan{Seed: 5}).SlowConsumer("client2", time.Hour)
	rt := newFaultRuntime(t, v, 1, plan, func(c *Config) {
		c.Overload = OverloadConfig{MaxQueue: 3, SessionQuota: 2, StreamWindow: 1, SlowConsumerAfter: 2 * time.Second}
		c.DMS.MemBudget = 2 * one
	})
	var out overloadOutcome
	v.Go(func() {
		cl1 := NewClient(rt) // well-behaved session
		cl2 := NewClient(rt) // wedged viewer
		sid, _ := cl2.Submit("test.stream", tinyParams("packets", "3")) // dispatched: wedges the pool
		e1, _ := cl1.Submit("test.echo", tinyParams())                  // queued
		e2, _ := cl1.Submit("test.echo", tinyParams())                  // queued: client1 at quota
		e3, _ := cl1.Submit("test.echo", tinyParams())                  // rejected: quota
		c2b, _ := cl2.Submit("test.echo", tinyParams())                 // queued: queue now full
		c2c, _ := cl2.Submit("test.echo", tinyParams())                 // rejected: queue
		_, err3 := cl1.Collect(e3)
		_, errC := cl2.Collect(c2c)
		for i, e := range []error{err3, errC} {
			var oe *OverloadedError
			if !errors.As(e, &oe) {
				t.Errorf("rejection %d error = %v, want *OverloadedError", i, e)
				continue
			}
			if oe.RetryAfter <= 0 {
				t.Errorf("rejection %d carries no retry-after hint", i)
			}
			out.rejReasons[i] = oe.Reason
		}
		// Every admitted request completes once the slow consumer is culled.
		r1, errE1 := cl1.Collect(e1)
		r2, errE2 := cl1.Collect(e2)
		rB, errB := cl2.Collect(c2b)
		for i, e := range []error{errE1, errE2, errB} {
			if e != nil {
				t.Errorf("admitted request %d failed: %v", i, e)
			}
		}
		_, errS := cl2.Collect(sid)
		if errS != nil {
			out.streamErr = errS.Error()
		}
		lr, errL := cl1.Run("test.load", tinyParams())
		if errL != nil {
			t.Errorf("budgeted load failed: %v", errL)
		}
		out.sigs = [4]string{meshSignature(r1.Merged), meshSignature(r2.Merged), meshSignature(rB.Merged), meshSignature(lr.Merged)}
		rt.Shutdown()
	})
	v.Wait()
	out.now = v.Now()
	out.counters = rt.Sched.OverloadStats()
	out.budget = rt.DMS.Budget().Stats()
	return out
}

func TestOverloadScenarioDeterministic(t *testing.T) {
	// Reference: the same echo command on an idle, unconstrained system.
	v := vclock.NewVirtual()
	rt := newTestRuntime(t, v, 1)
	var ref string
	v.Go(func() {
		cl := NewClient(rt)
		res, err := cl.Run("test.echo", tinyParams())
		if err != nil {
			t.Error(err)
		}
		ref = meshSignature(res.Merged)
		rt.Shutdown()
	})
	v.Wait()

	a := runOverloadScenario(t)
	if a.counters != (OverloadCounters{RejectedQueue: 1, RejectedQuota: 1}) {
		t.Errorf("counters = %+v, want exactly one rejection of each kind", a.counters)
	}
	if !strings.Contains(a.rejReasons[0], "quota") {
		t.Errorf("first rejection = %q, want session quota", a.rejReasons[0])
	}
	if !strings.Contains(a.rejReasons[1], "queue full") {
		t.Errorf("second rejection = %q, want queue full", a.rejReasons[1])
	}
	if !strings.Contains(a.streamErr, "slow consumer") {
		t.Errorf("stream outcome = %q, want slow-consumer cancellation", a.streamErr)
	}
	for i, s := range a.sigs[:3] {
		if s != ref {
			t.Errorf("admitted request %d result differs from the uncontended run", i)
		}
	}
	if a.budget.Peak == 0 || a.budget.Peak > a.budget.Limit {
		t.Errorf("budget peak = %d, want in (0, %d]", a.budget.Peak, a.budget.Limit)
	}

	// The scenario is fully deterministic: a second run reproduces the
	// virtual end time and every observable byte for byte.
	b := runOverloadScenario(t)
	if a.now != b.now {
		t.Errorf("virtual end times differ: %v vs %v", a.now, b.now)
	}
	if a.counters != b.counters || a.budget != b.budget || a.sigs != b.sigs ||
		a.streamErr != b.streamErr || a.rejReasons != b.rejReasons {
		t.Errorf("scenario not deterministic:\n  a = %+v\n  b = %+v", a, b)
	}
}
