package vclock

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualSingleSleep(t *testing.T) {
	v := NewVirtual()
	var got time.Duration
	v.Go(func() {
		v.Sleep(5 * time.Second)
		got = v.Now()
	})
	v.Wait()
	if got != 5*time.Second {
		t.Fatalf("Now after Sleep(5s) = %v, want 5s", got)
	}
}

func TestVirtualSleepZeroAndNegative(t *testing.T) {
	v := NewVirtual()
	v.Go(func() {
		v.Sleep(0)
		v.Sleep(-time.Second)
	})
	v.Wait()
	if v.Now() != 0 {
		t.Fatalf("Now = %v, want 0", v.Now())
	}
}

func TestVirtualParallelMakespan(t *testing.T) {
	// Two parallel workers charging 10s and 3s must produce a 10s makespan,
	// not 13s: that is the whole point of the virtual clock.
	v := NewVirtual()
	v.Go(func() { v.Sleep(10 * time.Second) })
	v.Go(func() { v.Sleep(3 * time.Second) })
	v.Wait()
	if v.Now() != 10*time.Second {
		t.Fatalf("makespan = %v, want 10s", v.Now())
	}
}

func TestVirtualSequentialCharges(t *testing.T) {
	v := NewVirtual()
	v.Go(func() {
		for i := 0; i < 10; i++ {
			v.Sleep(time.Second)
		}
	})
	v.Wait()
	if v.Now() != 10*time.Second {
		t.Fatalf("sequential total = %v, want 10s", v.Now())
	}
}

func TestVirtualMonotonic(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	var stamps []time.Duration
	for i := 0; i < 8; i++ {
		d := time.Duration(i+1) * 100 * time.Millisecond
		v.Go(func() {
			for j := 0; j < 5; j++ {
				v.Sleep(d)
				mu.Lock()
				stamps = append(stamps, v.Now())
				mu.Unlock()
			}
		})
	}
	v.Wait()
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("time went backwards: %v after %v", stamps[i], stamps[i-1])
		}
	}
}

func TestVirtualDeterministicMakespan(t *testing.T) {
	// Property: the makespan of a fixed set of independent work sequences is
	// the max of their sums, independent of real scheduling.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		var want time.Duration
		charges := make([][]time.Duration, n)
		for i := range charges {
			var sum time.Duration
			for j := 0; j < 1+rng.Intn(8); j++ {
				d := time.Duration(1+rng.Intn(1000)) * time.Millisecond
				charges[i] = append(charges[i], d)
				sum += d
			}
			if sum > want {
				want = sum
			}
		}
		v := NewVirtual()
		for i := range charges {
			seq := charges[i]
			v.Go(func() {
				for _, d := range seq {
					v.Sleep(d)
				}
			})
		}
		v.Wait()
		return v.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWaiterWakeBeforeWait(t *testing.T) {
	v := NewVirtual()
	w := v.NewWaiter()
	w.Wake()
	v.Go(func() {
		w.Wait() // must not park: already woken
		v.Sleep(time.Second)
	})
	v.Wait()
	if v.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", v.Now())
	}
}

func TestWaiterHandoffAdvancesTime(t *testing.T) {
	// Producer sleeps 4s then wakes the consumer; consumer then charges 2s.
	// Total must be 6s.
	v := NewVirtual()
	w := v.NewWaiter()
	v.Go(func() {
		v.Sleep(4 * time.Second)
		w.Wake()
	})
	var consumerEnd time.Duration
	v.Go(func() {
		w.Wait()
		v.Sleep(2 * time.Second)
		consumerEnd = v.Now()
	})
	v.Wait()
	if consumerEnd != 6*time.Second {
		t.Fatalf("consumer end = %v, want 6s", consumerEnd)
	}
}

func TestVirtualDeadlockDetected(t *testing.T) {
	v := NewVirtual()
	detected := make(chan struct{})
	var once sync.Once
	v.OnDeadlock = func(live, waiting int, _ time.Duration) {
		if live != 1 || waiting != 1 {
			t.Errorf("deadlock report = %d live, %d waiting", live, waiting)
		}
		once.Do(func() { close(detected) })
	}
	w := v.NewWaiter()
	v.Go(func() {
		w.Wait() // nobody will ever wake this
	})
	select {
	case <-detected:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock not detected")
	}
	w.Wake() // release the actor so the test can end cleanly
	v.Wait()
}

func TestWatchdogToleratesStartupIdle(t *testing.T) {
	// A system whose actors all park briefly before the driver injects work
	// is NOT deadlocked: work arriving within the grace period must clear
	// the suspicion.
	v := NewVirtual()
	v.OnDeadlock = func(live, waiting int, _ time.Duration) {
		t.Errorf("false deadlock: %d live, %d waiting", live, waiting)
	}
	q := NewQueue[int](v)
	v.Go(func() {
		for {
			if _, ok := q.Pop(); !ok {
				return
			}
			v.Sleep(time.Millisecond)
		}
	})
	// Consumer parks; inject work well inside the grace period.
	time.Sleep(watchdogDelay / 5)
	v.Go(func() {
		q.PushOpen(1)
		q.Close()
	})
	v.Wait()
	// Give any armed watchdog time to (wrongly) fire before the test ends.
	time.Sleep(watchdogDelay + 100*time.Millisecond)
}

func TestVirtualHoldsStillUntilDriverWaits(t *testing.T) {
	// A periodic actor (a heartbeat loop) must not run the clock forward while
	// the driver — not an actor — is still between spawning it and spawning the
	// scenario: the scenario starts at virtual time zero however long that
	// takes in wall time.
	v := NewVirtual()
	var stopped atomic.Bool
	v.Go(func() {
		for !stopped.Load() {
			v.Sleep(250 * time.Millisecond)
		}
	})
	time.Sleep(20 * time.Millisecond)
	var start time.Duration
	v.Go(func() {
		start = v.Now()
		v.Sleep(time.Second)
		stopped.Store(true)
	})
	v.Wait()
	if start != 0 {
		t.Fatalf("scenario started at %v, want 0: the clock free-ran before Wait", start)
	}
}

func TestQueueFIFO(t *testing.T) {
	v := NewVirtual()
	q := NewQueue[int](v)
	var got []int
	v.Go(func() {
		for i := 0; i < 100; i++ {
			q.PushOpen(i)
		}
		q.Close()
	})
	v.Go(func() {
		for {
			x, ok := q.Pop()
			if !ok {
				return
			}
			got = append(got, x)
		}
	})
	v.Wait()
	if len(got) != 100 {
		t.Fatalf("got %d items, want 100", len(got))
	}
	for i, x := range got {
		if x != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO violated)", i, x, i)
		}
	}
}

func TestQueuePipelineTiming(t *testing.T) {
	// Producer emits an item every second; consumer charges 2s per item.
	// With 3 items the consumer finishes at 1+3*2 = 7s.
	v := NewVirtual()
	q := NewQueue[int](v)
	v.Go(func() {
		for i := 0; i < 3; i++ {
			v.Sleep(time.Second)
			q.PushOpen(i)
		}
		q.Close()
	})
	var end time.Duration
	v.Go(func() {
		for {
			if _, ok := q.Pop(); !ok {
				return
			}
			v.Sleep(2 * time.Second)
			end = v.Now()
		}
	})
	v.Wait()
	if end != 7*time.Second {
		t.Fatalf("consumer end = %v, want 7s", end)
	}
}

func TestQueueManyConsumers(t *testing.T) {
	v := NewVirtual()
	q := NewQueue[int](v)
	var count atomic.Int64
	for i := 0; i < 4; i++ {
		v.Go(func() {
			for {
				if _, ok := q.Pop(); !ok {
					return
				}
				count.Add(1)
				v.Sleep(time.Second)
			}
		})
	}
	v.Go(func() {
		for i := 0; i < 12; i++ {
			q.PushOpen(i)
		}
		q.Close()
	})
	v.Wait()
	if count.Load() != 12 {
		t.Fatalf("consumed %d, want 12", count.Load())
	}
	// 12 one-second items over 4 consumers: perfect 3s makespan.
	if v.Now() != 3*time.Second {
		t.Fatalf("makespan = %v, want 3s", v.Now())
	}
}

func TestGate(t *testing.T) {
	v := NewVirtual()
	g := NewGate(v)
	var order []string
	var mu sync.Mutex
	for i := 0; i < 3; i++ {
		v.Go(func() {
			g.Wait()
			mu.Lock()
			order = append(order, "released")
			mu.Unlock()
		})
	}
	v.Go(func() {
		v.Sleep(5 * time.Second)
		mu.Lock()
		order = append(order, "open")
		mu.Unlock()
		g.Open()
	})
	v.Wait()
	if len(order) != 4 || order[0] != "open" {
		t.Fatalf("order = %v", order)
	}
	g.Wait() // after open: returns immediately
}

func TestSemaphoreSerializesResource(t *testing.T) {
	// 4 actors each need the single disk for 2s: makespan 8s.
	v := NewVirtual()
	s := NewSemaphore(v, 1)
	for i := 0; i < 4; i++ {
		v.Go(func() {
			s.Acquire()
			v.Sleep(2 * time.Second)
			s.Release()
		})
	}
	v.Wait()
	if v.Now() != 8*time.Second {
		t.Fatalf("makespan = %v, want 8s", v.Now())
	}
}

func TestSemaphoreParallelPermits(t *testing.T) {
	// 4 actors, 2 permits, 2s each: makespan 4s.
	v := NewVirtual()
	s := NewSemaphore(v, 2)
	for i := 0; i < 4; i++ {
		v.Go(func() {
			s.Acquire()
			v.Sleep(2 * time.Second)
			s.Release()
		})
	}
	v.Wait()
	if v.Now() != 4*time.Second {
		t.Fatalf("makespan = %v, want 4s", v.Now())
	}
}

func TestRealClockBasics(t *testing.T) {
	r := NewReal()
	var ran atomic.Bool
	r.Go(func() {
		r.Sleep(time.Millisecond)
		ran.Store(true)
	})
	r.Wait()
	if !ran.Load() {
		t.Fatal("actor did not run")
	}
	if r.Now() <= 0 {
		t.Fatal("Now should be positive after a sleep")
	}
}

func TestRealQueueAndGroup(t *testing.T) {
	// The same primitives must work under the real clock.
	r := NewReal()
	q := NewQueue[int](r)
	g := NewGate(r)
	var sum int
	r.Go(func() {
		defer g.Open()
		for {
			x, ok := q.Pop()
			if !ok {
				return
			}
			sum += x
		}
	})
	r.Go(func() {
		for i := 1; i <= 10; i++ {
			q.PushOpen(i)
		}
		q.Close()
	})
	r.Go(func() { g.Wait() })
	r.Wait()
	if sum != 55 {
		t.Fatalf("sum = %d, want 55", sum)
	}
}

func TestVirtualWaitBeforeAnyActor(t *testing.T) {
	v := NewVirtual()
	v.Wait() // no actors: returns immediately
}

func TestVirtualTwoWaves(t *testing.T) {
	v := NewVirtual()
	v.Go(func() { v.Sleep(time.Second) })
	v.Wait()
	v.Go(func() { v.Sleep(time.Second) })
	v.Wait()
	if v.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s (time accumulates across waves)", v.Now())
	}
}

func TestNestedGo(t *testing.T) {
	v := NewVirtual()
	var inner time.Duration
	v.Go(func() {
		v.Sleep(time.Second)
		g := NewGate(v)
		v.Go(func() {
			defer g.Open()
			v.Sleep(2 * time.Second)
			inner = v.Now()
		})
		g.Wait()
	})
	v.Wait()
	if inner != 3*time.Second {
		t.Fatalf("inner end = %v, want 3s", inner)
	}
}

func TestSemaphorePriorityOrdering(t *testing.T) {
	// One permit held; one low and one high waiter queue up. On release the
	// high-priority waiter must win even though the low one queued first.
	v := NewVirtual()
	s := NewSemaphore(v, 1)
	var order []string
	var mu sync.Mutex
	grab := func(name string, low bool, delay time.Duration) {
		v.Go(func() {
			v.Sleep(delay)
			if low {
				s.AcquireLow()
			} else {
				s.Acquire()
			}
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			v.Sleep(time.Second)
			s.Release()
		})
	}
	grab("holder", false, 0)
	grab("low", true, 100*time.Millisecond)
	grab("high", false, 200*time.Millisecond)
	v.Wait()
	if len(order) != 3 || order[1] != "high" || order[2] != "low" {
		t.Fatalf("order = %v, want holder,high,low", order)
	}
}

func TestSemaphoreLowDeniedWhileHighQueued(t *testing.T) {
	// With a free permit but a high waiter pending... a high waiter can only
	// be pending while no permit is free, so instead verify the counters.
	v := NewVirtual()
	s := NewSemaphore(v, 2)
	if s.Free() != 2 || s.HighWaiters() != 0 || s.LowWaiters() != 0 {
		t.Fatalf("fresh semaphore counters wrong: %d/%d/%d", s.Free(), s.HighWaiters(), s.LowWaiters())
	}
	v.Go(func() {
		s.Acquire()
		s.AcquireLow()
		if s.Free() != 0 {
			t.Error("permits not exhausted")
		}
		s.Release()
		s.Release()
	})
	v.Wait()
	if s.Free() != 2 {
		t.Fatalf("Free = %d after releases", s.Free())
	}
}

func TestVirtualSleepZeroUnderContention(t *testing.T) {
	// Sleep(0) must not perturb bookkeeping while others are parked.
	v := NewVirtual()
	g := NewGate(v)
	v.Go(func() {
		v.Sleep(0)
		v.Sleep(time.Second)
		g.Open()
	})
	v.Go(func() { g.Wait() })
	v.Wait()
	if v.Now() != time.Second {
		t.Fatalf("Now = %v", v.Now())
	}
}

func TestParkerUnparkWakesAtUnparkTime(t *testing.T) {
	v := NewVirtual()
	p := v.NewParker()
	var woke time.Duration
	v.Go(func() {
		p.Park(5 * time.Second)
		woke = v.Now()
	})
	v.Go(func() {
		v.Sleep(time.Second)
		p.Unpark()
	})
	v.Wait()
	if woke != time.Second {
		t.Fatalf("parked actor woke at %v, want 1s (the Unpark)", woke)
	}
	// The disarmed 5s deadline neither kept an actor alive nor moved time.
	if v.Now() != time.Second {
		t.Fatalf("Now after Wait = %v, want 1s", v.Now())
	}
}

func TestParkerDeadline(t *testing.T) {
	v := NewVirtual()
	p := v.NewParker()
	var woke [2]time.Duration
	v.Go(func() {
		p.Park(2 * time.Second)
		woke[0] = v.Now()
		p.Park(time.Second) // already passed: returns at once
		woke[1] = v.Now()
	})
	v.Wait()
	if woke != [2]time.Duration{2 * time.Second, 2 * time.Second} {
		t.Fatalf("woke at %v, want [2s 2s]", woke)
	}
}

func TestParkerPermit(t *testing.T) {
	for _, c := range []Clock{NewVirtual(), NewReal()} {
		p := c.NewParker()
		p.Unpark()
		p.Unpark() // one permit at most
		var parks int
		c.Go(func() {
			p.Park(0) // consumes the permit
			parks++
		})
		c.Wait()
		if parks != 1 || c.Now() > time.Second {
			t.Fatalf("%T: permit did not release the park", c)
		}
	}
}

func TestRealParkerDeadlineAndUnpark(t *testing.T) {
	r := NewReal()
	p := r.NewParker()
	start := r.Now()
	p.Park(start + 5*time.Millisecond)
	if waited := r.Now() - start; waited < 5*time.Millisecond {
		t.Fatalf("timed park returned after %v, want ≥ 5ms", waited)
	}
	go func() {
		time.Sleep(time.Millisecond)
		p.Unpark()
	}()
	start = r.Now()
	p.Park(start + time.Hour)
	if waited := r.Now() - start; waited > time.Minute {
		t.Fatalf("Unpark did not end the park (waited %v)", waited)
	}
}

// TestParkerDeterministic replays one credit-window exchange many times: a
// producer that parks (with a deadline) whenever two packets are unacked and
// a consumer that acks each at a seeded pace, some slower than the deadline.
// Every replay must log the same virtual times, and the disarmed deadlines
// must leave no trace in the clock.
func TestParkerDeterministic(t *testing.T) {
	run := func(seed int64) (log []time.Duration, end time.Duration) {
		rng := rand.New(rand.NewSource(seed))
		delays := make([]time.Duration, 40)
		for i := range delays {
			delays[i] = time.Duration(1+rng.Intn(50)) * time.Millisecond
		}
		v := NewVirtual()
		p := v.NewParker()
		q := NewQueue[int](v)
		var mu sync.Mutex
		outstanding := 0
		v.Go(func() {
			for i := range delays {
				for {
					mu.Lock()
					if outstanding < 2 {
						outstanding++
						mu.Unlock()
						break
					}
					mu.Unlock()
					// Off the consumer's whole-millisecond grid, so a
					// deadline never ties with an ack.
					p.Park(v.Now() + 30250*time.Microsecond)
					log = append(log, -v.Now()) // a wake-up: negative marks it
				}
				log = append(log, v.Now())
				q.PushOpen(i)
			}
			q.Close()
		})
		var consumed time.Duration
		v.Go(func() {
			for {
				i, ok := q.Pop()
				if !ok {
					return
				}
				v.Sleep(delays[i])
				mu.Lock()
				outstanding--
				mu.Unlock()
				p.Unpark()
				consumed = v.Now()
			}
		})
		v.Wait()
		if v.Now() != consumed {
			t.Fatalf("seed %d: clock ends at %v, after the last ack at %v", seed, v.Now(), consumed)
		}
		return log, v.Now()
	}
	for seed := int64(1); seed <= 5; seed++ {
		want, wantEnd := run(seed)
		for i := 0; i < 10; i++ {
			got, end := run(seed)
			if end != wantEnd || len(got) != len(want) {
				t.Fatalf("seed %d replay %d: %d events ending %v, want %d ending %v", seed, i, len(got), end, len(want), wantEnd)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("seed %d replay %d: event %d at %v, want %v", seed, i, j, got[j], want[j])
				}
			}
		}
	}
}
