package core

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"viracocha/internal/faults"
	"viracocha/internal/vclock"
)

// sleepUntil parks the calling actor until the absolute virtual time at.
func sleepUntil(v *vclock.Virtual, at time.Duration) {
	if d := at - v.Now(); d > 0 {
		v.Sleep(d)
	}
}

// waitFor polls cond from the calling actor until it holds or the window
// elapses.
func waitFor(v *vclock.Virtual, within time.Duration, cond func() bool) bool {
	deadline := v.Now() + within
	for !cond() {
		if v.Now() >= deadline {
			return false
		}
		v.Sleep(5 * time.Millisecond)
	}
	return true
}

// traceContains reports whether any recorded fault-tolerance event mentions
// the substring.
func traceContains(rt *Runtime, sub string) bool {
	for _, e := range rt.Trace.Events() {
		if strings.Contains(e.Msg, sub) {
			return true
		}
	}
	return false
}

// traceCount counts recorded events mentioning the substring.
func traceCount(rt *Runtime, sub string) int {
	n := 0
	for _, e := range rt.Trace.Events() {
		if strings.Contains(e.Msg, sub) {
			n++
		}
	}
	return n
}

// TestRejoinAfterCrashRestoresPool is the tentpole scenario: a worker
// crashes, is declared dead (pool shrinks), reboots under a new epoch,
// rejoins, and the pool returns to configured strength — with the rejoined
// node's cold cache re-warmed from the DMS demand hot-set off the request
// path.
func TestRejoinAfterCrashRestoresPool(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 5}).
		CrashAt("w1", 500*time.Millisecond).
		RecoverAt("w1", 1500*time.Millisecond)
	rt := newFaultRuntime(t, v, 3, plan, nil)
	var res *RunResult
	var err error
	var liveDuringOutage, liveAfterRejoin int
	v.Go(func() {
		cl := NewClient(rt)
		// Warm the demand hot-set before the crash so the rejoin has a
		// working set to pull back.
		if _, lerr := cl.Run("test.load", map[string]string{"dataset": "tiny", "workers": "3"}); lerr != nil {
			t.Errorf("warm-up load failed: %v", lerr)
		}
		sleepUntil(v, time.Second) // crash at 0.5s, declared dead by ~0.7s
		liveDuringOutage = rt.Sched.LiveWorkers()
		sleepUntil(v, 2*time.Second) // reboot at 1.5s, join lands promptly
		liveAfterRejoin = rt.Sched.LiveWorkers()
		res, err = cl.Run("test.crunch", map[string]string{"dataset": "tiny", "workers": "3"})
		rt.Shutdown()
	})
	v.Wait()
	if liveDuringOutage != 2 {
		t.Fatalf("live workers during outage = %d, want 2", liveDuringOutage)
	}
	if liveAfterRejoin != 3 {
		t.Fatalf("live workers after rejoin = %d, want 3 (pool back at strength)", liveAfterRejoin)
	}
	if err != nil {
		t.Fatalf("post-rejoin request failed: %v", err)
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if st.Degraded || st.Workers != 3 {
		t.Fatalf("post-rejoin stats = %+v, want full-strength non-degraded group", st)
	}
	if res.Merged.NumTriangles() != 3 {
		t.Fatalf("merged triangles = %d, want 3", res.Merged.NumTriangles())
	}
	if got := rt.Workers[1].Epoch(); got != 2 {
		t.Fatalf("w1 epoch = %d, want 2 after one respawn", got)
	}
	if !traceContains(rt, "rebooted as epoch 2") {
		t.Fatal("trace missing the respawn event")
	}
	if !traceContains(rt, "rejoined (epoch 2)") {
		t.Fatal("trace missing the rejoin admission event")
	}
	// Cache re-warm: the join handshake rides along a hot-set prefetch, so
	// the new incarnation's proxy speculatively loaded the working set.
	if len(rt.DMS.HotSet()) == 0 {
		t.Fatal("demand hot-set empty despite warm-up loads")
	}
	warmed := false
	for _, p := range rt.DMS.Proxies() {
		if p.Node == "w1" && p.Stats().PrefetchIssued > 0 {
			warmed = true
		}
	}
	if !warmed {
		t.Fatal("rejoined w1 proxy issued no re-warm prefetches")
	}
	if ierr := rt.Sched.CheckInvariants(); ierr != nil {
		t.Fatalf("scheduler invariants violated: %v", ierr)
	}
}

// TestEpochFencingDropsStaleFrames drives two explicit crash → declareDead →
// revive cycles and checks the fencing seams: LiveWorkers stays consistent
// through each cycle, a wdone or heartbeat stamped with a fenced epoch is
// dropped, and a current-epoch heartbeat is accepted.
func TestEpochFencingDropsStaleFrames(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 3, nil, func(cfg *Config) {
		// No heartbeats: liveness transitions are driven explicitly below,
		// so lastSeen comparisons are deterministic.
		cfg.FT = FTConfig{}
	})
	s := rt.Sched
	v.Go(func() {
		cl := NewClient(rt)
		if _, err := cl.Run("test.echo", map[string]string{"dataset": "tiny", "workers": "3"}); err != nil {
			t.Errorf("baseline request failed: %v", err)
		}
		w := rt.Workers[1]
		for cycle := 1; cycle <= 2; cycle++ {
			w.crash("test: induced crash")
			s.declareDead("w1", "test: induced crash")
			if live := s.LiveWorkers(); live != 2 {
				t.Errorf("cycle %d: live = %d after declareDead, want 2", cycle, live)
			}
			if st := s.workerState("w1"); st != wsDead {
				t.Errorf("cycle %d: w1 state = %d, want dead", cycle, st)
			}
			if !rt.reviveWorker(w) {
				t.Fatalf("cycle %d: revival refused", cycle)
			}
			if !waitFor(v, time.Second, func() bool { return s.LiveWorkers() == 3 }) {
				t.Fatalf("cycle %d: pool never returned to strength", cycle)
			}
			if got, want := w.Epoch(), cycle+1; got != want {
				t.Errorf("cycle %d: epoch = %d, want %d", cycle, got, want)
			}
			if ierr := s.CheckInvariants(); ierr != nil {
				t.Fatalf("cycle %d: invariants violated: %v", cycle, ierr)
			}
		}

		// A completion report from a fenced incarnation must be dropped
		// without touching membership.
		s.noteDone(0, &Report{Worker: "w1", Epoch: 1})
		if st := s.workerState("w1"); st != wsFree {
			t.Errorf("stale wdone changed w1 state to %d", st)
		}
		if live := s.LiveWorkers(); live != 3 {
			t.Errorf("stale wdone changed live count to %d", live)
		}

		// A heartbeat from a fenced incarnation must not refresh liveness.
		s.mu.Lock()
		seenBefore := s.lastSeen["w1"]
		s.mu.Unlock()
		v.Sleep(50 * time.Millisecond)
		s.noteHeartbeat(&Report{Worker: "w1", Idle: true, Epoch: 1})
		s.mu.Lock()
		seenStale := s.lastSeen["w1"]
		s.mu.Unlock()
		if seenStale != seenBefore {
			t.Error("stale heartbeat refreshed lastSeen")
		}
		// The current incarnation's heartbeat is accepted.
		s.noteHeartbeat(&Report{Worker: "w1", Idle: true, Epoch: 3})
		s.mu.Lock()
		seenFresh := s.lastSeen["w1"]
		s.mu.Unlock()
		if seenFresh == seenBefore {
			t.Error("current-epoch heartbeat not accepted")
		}

		res, err := cl.Run("test.crunch", map[string]string{"dataset": "tiny", "workers": "3"})
		if err != nil {
			t.Errorf("post-churn request failed: %v", err)
		} else if res.Merged.NumTriangles() != 3 {
			t.Errorf("merged triangles = %d, want 3", res.Merged.NumTriangles())
		}
		rt.Shutdown()
	})
	v.Wait()
	if !traceContains(rt, "stale wdone from fenced incarnation of w1 dropped") {
		t.Fatal("trace missing the stale-wdone fencing event")
	}
}

// TestRollingRestart cycles the whole pool — cordon, drain, kill, reboot,
// rejoin, one rank at a time — underneath an in-flight journaled request,
// and requires the result to be byte-identical to a roll-free run.
func TestRollingRestart(t *testing.T) {
	params := map[string]string{"workers": "3", "items": "6"}
	ref, rerr, _, _, _ := runSpanScenario(t, 3, nil, nil, "test.spanstream", params)
	if rerr != nil {
		t.Fatalf("reference run failed: %v", rerr)
	}

	v := vclock.NewVirtual()
	rt := newFaultRuntime(t, v, 3, nil, nil)
	var res *RunResult
	var rollErr error
	v.Go(func() {
		cl := NewClient(rt)
		p := map[string]string{"dataset": "tiny", "redistribute": "1"}
		for k, val := range params {
			p[k] = val
		}
		id, serr := cl.Submit("test.spanstream", p)
		if serr != nil {
			t.Errorf("submit failed: %v", serr)
		}
		v.Sleep(200 * time.Millisecond) // every rank is mid-span now
		rollErr = rt.Roll(10 * time.Second)
		res, _ = cl.Collect(id)
		rt.Shutdown()
	})
	v.Wait()
	if rollErr != nil {
		t.Fatalf("rolling restart failed: %v", rollErr)
	}
	if res.Err != nil {
		t.Fatalf("request failed during roll: %v", res.Err)
	}
	if !bytes.Equal(res.Merged.EncodeBinary(), ref.Merged.EncodeBinary()) {
		t.Fatal("mesh from the rolled run not byte-identical to the roll-free reference")
	}
	for i, w := range rt.Workers {
		if got := w.Epoch(); got != 2 {
			t.Fatalf("w%d epoch = %d, want 2 (every rank rebooted exactly once)", i, got)
		}
	}
	if live := rt.Sched.LiveWorkers(); live != 3 {
		t.Fatalf("live workers after roll = %d, want 3", live)
	}
	// The busy rank could not be cordoned until its span drained.
	if !traceContains(rt, "drained: cordon complete") {
		t.Fatal("trace missing the drain-then-cordon handoff")
	}
	if ierr := rt.Sched.CheckInvariants(); ierr != nil {
		t.Fatalf("scheduler invariants violated: %v", ierr)
	}
}

// churnSeeds mirrors soakSeeds for the churn suite: small in-tree, raised by
// `make churn` via CHURN_SEEDS.
func churnSeeds() int {
	if s := os.Getenv("CHURN_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 3
}

// TestChurnSoak runs seeded whole-lifecycle churn timelines — a mid-request
// crash with a planned reboot, on half the seeds a flapper riding alongside,
// one spare worker beyond the request's group absorbing the losses — and
// requires every request to come out byte-identical to the fault-free
// reference, with scheduler invariants intact and the pool back at
// configured strength once the dust settles.
func TestChurnSoak(t *testing.T) {
	n := churnSeeds()
	for seed := 1; seed <= n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := faults.Mix64(uint64(seed))
			pick := func(mod int) int {
				r = faults.Mix64(r)
				return int(r % uint64(mod))
			}
			workers := 3 + pick(2) // 3..4 ranks
			pool := workers + 1    // the ranks plus one free spare
			items := 4 * workers   // 4 span items (4s of compute) per rank
			victim := 1 + pick(workers-1)
			crashAt := time.Duration(pick(2))*time.Second +
				time.Duration(100+pick(800))*time.Millisecond
			recoverAt := crashAt + 500*time.Millisecond +
				time.Duration(pick(1000))*time.Millisecond
			flapper := -1
			if pick(2) == 0 && workers > 2 {
				// A distinct non-master rank flaps throughout the run.
				flapper = 1 + (victim % (workers - 1))
			}
			params := map[string]string{
				"workers": strconv.Itoa(workers),
				"items":   strconv.Itoa(items),
				"retries": "10", // churn may kill several attempts
			}
			t.Logf("workers=%d items=%d crash w%d@%v recover@%v flapper=%d",
				workers, items, victim, crashAt, recoverAt, flapper)

			ref, rerr, _, _, _ := runSpanScenario(t, pool, nil, nil, "test.spanstream", params)
			if rerr != nil {
				t.Fatalf("fault-free reference failed: %v", rerr)
			}

			plan := (&faults.Plan{Seed: uint64(seed)}).
				CrashAt(fmt.Sprintf("w%d", victim), crashAt).
				RecoverAt(fmt.Sprintf("w%d", victim), recoverAt)
			if flapper >= 0 {
				plan.Flap(fmt.Sprintf("w%d", flapper),
					time.Duration(700+pick(600))*time.Millisecond)
			}
			v := vclock.NewVirtual()
			rt := newFaultRuntime(t, v, pool, plan, nil)
			var res *RunResult
			var err error
			var live int
			v.Go(func() {
				cl := NewClient(rt)
				p := map[string]string{"dataset": "tiny", "redistribute": "1"}
				for k, val := range params {
					p[k] = val
				}
				res, err = cl.Run("test.spanstream", p)
				// Let the planned recovery (and any in-flight rejoin) land
				// before reading the pool strength. A flapper is readmitted
				// on every rejoin, so wait for a moment it is up as well.
				sleepUntil(v, recoverAt+time.Second)
				waitFor(v, 10*time.Second, func() bool { return rt.Sched.LiveWorkers() == pool })
				live = rt.Sched.LiveWorkers()
				rt.Shutdown()
			})
			v.Wait()
			if err != nil {
				t.Fatalf("churn run failed: %v", err)
			}
			if !bytes.Equal(res.Merged.EncodeBinary(), ref.Merged.EncodeBinary()) {
				t.Fatal("churn mesh not byte-identical to the fault-free reference")
			}
			if live != pool {
				t.Fatalf("live workers after settling = %d, want %d", live, pool)
			}
			if ierr := rt.Sched.CheckInvariants(); ierr != nil {
				t.Fatalf("scheduler invariants violated: %v", ierr)
			}
		})
	}
}
