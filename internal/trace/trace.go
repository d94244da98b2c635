// Package trace provides a lightweight, bounded event log for the runtime:
// fault injections, worker deaths, retries, degradations and swallowed send
// errors are recorded with their virtual (or wall) timestamps so tests and
// operators can reconstruct what the fault-tolerance machinery did. The log
// is a fixed-capacity ring: old events are dropped, recording never blocks,
// and a nil *Log is a valid no-op sink.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Event is one recorded occurrence.
type Event struct {
	// At is the clock time the event was recorded.
	At time.Duration
	// Actor names the component that recorded the event ("scheduler",
	// "worker:w2", "faults", "client1").
	Actor string
	// Msg is the human-readable description.
	Msg string
}

// String formats the event for logs and test failures.
func (e Event) String() string { return fmt.Sprintf("[%v] %s: %s", e.At, e.Actor, e.Msg) }

// Log is a concurrency-safe bounded event ring.
type Log struct {
	mu      sync.Mutex
	cap     int
	events  []Event
	dropped int64
}

// NewLog returns a log keeping at most capacity events (minimum 16).
func NewLog(capacity int) *Log {
	if capacity < 16 {
		capacity = 16
	}
	return &Log{cap: capacity}
}

// Eventf records a formatted event at time at. A nil log discards it.
func (l *Log) Eventf(at time.Duration, actor, format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.events) == l.cap {
		copy(l.events, l.events[1:])
		l.events = l.events[:l.cap-1]
		l.dropped++
	}
	l.events = append(l.events, Event{At: at, Actor: actor, Msg: fmt.Sprintf(format, args...)})
	l.mu.Unlock()
}

// Events returns a snapshot of the retained events in record order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Len reports the number of retained events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Dropped reports how many events were evicted by the ring bound.
func (l *Log) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Matching returns retained events whose Msg contains substr (simple test
// helper; substr is matched verbatim).
func (l *Log) Matching(substr string) []Event {
	var out []Event
	for _, e := range l.Events() {
		if strings.Contains(e.Msg, substr) {
			out = append(out, e)
		}
	}
	return out
}

// CountMatching reports how many retained events' Msg contains substr —
// the assertion form of Matching for tests that only care about occurrence
// counts (redistributions, dropped redispatches).
func (l *Log) CountMatching(substr string) int {
	n := 0
	for _, e := range l.Events() {
		if strings.Contains(e.Msg, substr) {
			n++
		}
	}
	return n
}
