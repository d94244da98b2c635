package core

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"viracocha/internal/comm"
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
		cfg.FT = FTConfig{
			MaxRetries:   2,
			RetryBackoff: 10 * time.Millisecond,
			MaxBackoff:   time.Second,
		}
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
		s.noteDone(comm.Message{Kind: "wdone", Params: map[string]string{"worker": "w1", "wepoch": "1"}})
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
		s.noteHeartbeat(comm.Message{Kind: "hb", Params: map[string]string{"worker": "w1", "state": "idle", "wepoch": "1"}})
		s.mu.Lock()
		seenStale := s.lastSeen["w1"]
		s.mu.Unlock()
		if seenStale != seenBefore {
			t.Error("stale heartbeat refreshed lastSeen")
		}
		// The current incarnation's heartbeat is accepted.
		s.noteHeartbeat(comm.Message{Kind: "hb", Params: map[string]string{"worker": "w1", "state": "idle", "wepoch": "3"}})
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

// TestFlappingWorkerQuarantined runs a crash/rejoin flapper against the
// health scorer: the first rejoin is admitted (score below threshold), the
// next ones land in quarantine with an escalating hold-down, and a request
// during the hold runs degraded without the flapper.
func TestFlappingWorkerQuarantined(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 13}).Flap("w2", 600*time.Millisecond)
	rt := newFaultRuntime(t, v, 3, plan, func(cfg *Config) {
		cfg.FT.QuarantineAfter = 1.5
		cfg.FT.HealthHalfLife = 60 * time.Second // slow decay: crashes accumulate
	})
	var res *RunResult
	var err error
	var quarantined []string
	var liveDuringHold int
	v.Go(func() {
		cl := NewClient(rt)
		// Flap timeline: crash at 0.6s/1.8s/3.0s, rejoin at 1.2s/2.4s/3.6s.
		// The rejoin at 2.4s carries ~2 crashes of score and is quarantined.
		sleepUntil(v, 2600*time.Millisecond)
		quarantined = rt.Sched.QuarantinedWorkers()
		liveDuringHold = rt.Sched.LiveWorkers()
		res, err = cl.Run("test.echo", map[string]string{"dataset": "tiny", "workers": "3"})
		sleepUntil(v, 4*time.Second) // third rejoin: escalated hold
		rt.Shutdown()
	})
	v.Wait()
	if len(quarantined) != 1 || quarantined[0] != "w2" {
		t.Fatalf("quarantined = %v, want [w2]", quarantined)
	}
	if liveDuringHold != 2 {
		t.Fatalf("live workers during hold = %d, want 2 (flapper not schedulable)", liveDuringHold)
	}
	if err != nil {
		t.Fatalf("request during quarantine failed: %v", err)
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if !st.Degraded || st.Workers != 2 {
		t.Fatalf("stats = %+v, want Degraded=true Workers=2 (quarantined rank sat out)", st)
	}
	if n := traceCount(rt, "but quarantined for"); n < 2 {
		t.Fatalf("quarantine events = %d, want >= 2 (flapper re-offended)", n)
	}
	// Hold-down escalates: 4×FailAfter = 800ms, doubled for the repeat.
	if !traceContains(rt, "but quarantined for 800ms") {
		t.Fatal("trace missing the base hold-down")
	}
	if !traceContains(rt, "but quarantined for 1.6s") {
		t.Fatal("trace missing the escalated hold-down")
	}
}

// TestQuarantineReleaseOnProbation checks the far side of the hold-down: the
// monitor releases a quarantined node once its hold expires, and the node
// returns to full dispatch strength.
func TestQuarantineReleaseOnProbation(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 3}).
		CrashAt("w1", 500*time.Millisecond).
		RecoverAt("w1", 1200*time.Millisecond)
	rt := newFaultRuntime(t, v, 3, plan, func(cfg *Config) {
		cfg.FT.QuarantineAfter = 0.5 // a single crash is enough to quarantine
		cfg.FT.QuarantineHold = 300 * time.Millisecond
		cfg.FT.HealthHalfLife = 60 * time.Second
	})
	var res *RunResult
	var err error
	var heldAt, liveAfter int
	v.Go(func() {
		cl := NewClient(rt)
		sleepUntil(v, 1300*time.Millisecond) // rejoin at 1.2s lands in quarantine
		heldAt = len(rt.Sched.QuarantinedWorkers())
		sleepUntil(v, 1800*time.Millisecond) // hold expires at 1.5s
		liveAfter = rt.Sched.LiveWorkers()
		res, err = cl.Run("test.crunch", map[string]string{"dataset": "tiny", "workers": "3"})
		rt.Shutdown()
	})
	v.Wait()
	if heldAt != 1 {
		t.Fatalf("quarantined count at 1.3s = %d, want 1", heldAt)
	}
	if liveAfter != 3 {
		t.Fatalf("live workers after release = %d, want 3", liveAfter)
	}
	if !traceContains(rt, "released from quarantine on probation") {
		t.Fatal("trace missing the probation release")
	}
	if err != nil {
		t.Fatalf("post-probation request failed: %v", err)
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if st.Degraded || st.Workers != 3 {
		t.Fatalf("stats = %+v, want full-strength group after probation", st)
	}
}

// TestStandbyPromotionRestoresStrength checks the warm reserve: a standby
// worker runs outside the dispatch pool, is promoted the moment a live rank
// dies, and the dead rank — once rejoined against a pool already at strength
// — becomes the new reserve.
func TestStandbyPromotionRestoresStrength(t *testing.T) {
	v := vclock.NewVirtual()
	plan := (&faults.Plan{Seed: 9}).
		CrashAt("w1", 500*time.Millisecond).
		RecoverAt("w1", 1500*time.Millisecond)
	rt := newFaultRuntime(t, v, 3, plan, func(cfg *Config) {
		cfg.FT.Standby = 1
	})
	var res *RunResult
	var err error
	var standbyBefore, standbyAfterDeath, standbyAfterRejoin []string
	var liveBefore, liveAfterDeath, liveAfterRejoin int
	v.Go(func() {
		cl := NewClient(rt)
		sleepUntil(v, 300*time.Millisecond)
		standbyBefore = rt.Sched.StandbyWorkers()
		liveBefore = rt.Sched.LiveWorkers()
		sleepUntil(v, time.Second) // crash detected ~0.7s, standby promoted
		standbyAfterDeath = rt.Sched.StandbyWorkers()
		liveAfterDeath = rt.Sched.LiveWorkers()
		sleepUntil(v, 2*time.Second) // w1 rejoined a pool at strength
		standbyAfterRejoin = rt.Sched.StandbyWorkers()
		liveAfterRejoin = rt.Sched.LiveWorkers()
		res, err = cl.Run("test.crunch", map[string]string{"dataset": "tiny", "workers": "3"})
		rt.Shutdown()
	})
	v.Wait()
	if liveBefore != 3 || len(standbyBefore) != 1 || standbyBefore[0] != "w3" {
		t.Fatalf("initial pool: live=%d standby=%v, want 3 live and [w3]", liveBefore, standbyBefore)
	}
	if liveAfterDeath != 3 || len(standbyAfterDeath) != 0 {
		t.Fatalf("after death: live=%d standby=%v, want 3 live (w3 promoted) and no reserve",
			liveAfterDeath, standbyAfterDeath)
	}
	if !traceContains(rt, "standby w3 promoted") {
		t.Fatal("trace missing the standby promotion")
	}
	if liveAfterRejoin != 3 || len(standbyAfterRejoin) != 1 || standbyAfterRejoin[0] != "w1" {
		t.Fatalf("after rejoin: live=%d standby=%v, want 3 live and [w1] as the new reserve",
			liveAfterRejoin, standbyAfterRejoin)
	}
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	st, _ := rt.Sched.Stats(res.ReqID)
	if st.Degraded || st.Workers != 3 {
		t.Fatalf("stats = %+v, want full-strength non-degraded group", st)
	}
	if ierr := rt.Sched.CheckInvariants(); ierr != nil {
		t.Fatalf("scheduler invariants violated: %v", ierr)
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
// a warm standby absorbing the losses — and requires every request to come
// out byte-identical to the fault-free reference, with scheduler invariants
// intact and the pool back at configured strength once the dust settles.
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
			workers := 3 + pick(2)    // 3..4 ranks
			items := 4 * workers      // 4 span items (4s of compute) per rank
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
			mut := func(cfg *Config) {
				cfg.FT.Standby = 1
				cfg.FT.QuarantineAfter = 1.5
				cfg.FT.HealthHalfLife = 60 * time.Second
				cfg.FT.MaxRetries = 10 // churn may kill several attempts
			}
			params := map[string]string{
				"workers": strconv.Itoa(workers),
				"items":   strconv.Itoa(items),
			}
			t.Logf("workers=%d items=%d crash w%d@%v recover@%v flapper=%d",
				workers, items, victim, crashAt, recoverAt, flapper)

			ref, rerr, _, _, _ := runSpanScenario(t, workers, nil, mut, "test.spanstream", params)
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
			rt := newFaultRuntime(t, v, workers, plan, mut)
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
				// before reading the pool strength.
				sleepUntil(v, recoverAt+time.Second)
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
			if live != workers {
				t.Fatalf("live workers after settling = %d, want %d", live, workers)
			}
			if ierr := rt.Sched.CheckInvariants(); ierr != nil {
				t.Fatalf("scheduler invariants violated: %v", ierr)
			}
		})
	}
}
