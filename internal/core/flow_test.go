package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"viracocha/internal/vclock"
)

func never() bool { return false }

// parkedOn reports whether a producer is parked on (reqID, rank).
func (f *flowControl) parkedOn(reqID uint64, rank int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	sc := f.streams[flowKey{reqID: reqID, rank: rank}]
	return sc != nil && len(sc.parked) > 0
}

// TestFlowParkAllocatesNothing: under the real clock a producer that parks on
// a full window and is released by an ack — the steady state of a rank
// streaming under a small window — allocates nothing and leaves no goroutine
// behind, although every park arms the 5 s slow-consumer deadline.
func TestFlowParkAllocatesNothing(t *testing.T) {
	f := newFlowControl(vclock.NewReal())
	const window, deadline = 1, 5 * time.Second
	if err := f.Acquire(1, 0, window, deadline, never); err != nil {
		t.Fatal(err)
	}
	ackNext := make(chan struct{})
	acked := make(chan struct{})
	go func() { // the viewer: acks once the producer is parked
		for range ackNext {
			for !f.parkedOn(1, 0) {
				runtime.Gosched()
			}
			f.Ack(1, 0)
		}
		close(acked)
	}()
	cycle := func() {
		ackNext <- struct{}{}
		if err := f.Acquire(1, 0, window, deadline, never); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the stream's parking point and its timer are made once
	before := runtime.NumGoroutine()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("a park/ack cycle allocates %.1f objects, want 0", allocs)
	}
	// Not "equal": goroutines an earlier test left behind may exit meanwhile.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after 200 park/ack cycles, %d before", after, before)
	}
	close(ackNext)
	<-acked
}

// TestFlowDeadlineCountsFromLastAck: the slow-consumer deadline runs from the
// start of the current stall, which the ack ending the previous one reset —
// under either clock. Acks every 60% of the deadline keep the producer going
// for longer than the deadline in all; once they stop, it gives up exactly one
// deadline after the last.
func TestFlowDeadlineCountsFromLastAck(t *testing.T) {
	for _, tc := range []struct {
		name  string
		clock vclock.Clock
		unit  time.Duration
	}{
		{"virtual", vclock.NewVirtual(), time.Second},
		{"real", vclock.NewReal(), 10 * time.Millisecond},
	} {
		c := tc.clock
		f := newFlowControl(c)
		deadline := 5 * tc.unit
		var lastAck, gaveUp time.Duration
		var err error
		c.Go(func() {
			for i := 0; i < 6; i++ {
				if err = f.Acquire(1, 0, 1, deadline, never); err != nil {
					gaveUp = c.Now()
					return
				}
			}
			t.Errorf("%s: six credits from a window of one and four acks", tc.name)
		})
		c.Go(func() {
			for i := 0; i < 4; i++ {
				c.Sleep(3 * tc.unit)
				lastAck = c.Now()
				f.Ack(1, 0)
			}
		})
		c.Wait()
		if !errors.Is(err, ErrSlowConsumer) {
			t.Fatalf("%s: err = %v, want ErrSlowConsumer", tc.name, err)
		}
		if lastAck < deadline {
			t.Fatalf("%s: acks ended at %v, inside one deadline: nothing shown", tc.name, lastAck)
		}
		late := gaveUp - (lastAck + deadline)
		if _, virtual := c.(*vclock.Virtual); virtual && late != 0 || late < -tc.unit || late > 2*tc.unit {
			t.Errorf("%s: gave up at %v, want one deadline (%v) after the last ack at %v", tc.name, gaveUp, deadline, lastAck)
		}
	}
}
