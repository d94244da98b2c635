package core

import (
	"fmt"
	"sort"
)

// blockJournal is the scheduler-side progress journal of one journaled
// request: which span items each rank was assigned and which it has
// completed. It is fed by three worker message streams — "wspan" (span
// declaration at command start), "wmark" (eager per-item watermark) and the
// cumulative watermark piggybacked on heartbeats — and consulted by the
// failover planner alone: only a dead rank's unfinished items are re-issued.
// All access happens under the scheduler mutex.
type blockJournal struct {
	spans map[int]map[int]bool // rank → assigned span items (union across re-issues)
	done  map[int]map[int]bool // rank → completed span items
}

func newBlockJournal() *blockJournal {
	return &blockJournal{
		spans: map[int]map[int]bool{},
		done:  map[int]map[int]bool{},
	}
}

// noteSpan records a rank's declared span. A re-issued span (a survivor
// taking over unfinished items) unions into the existing record, so
// completion marks from the first incarnation keep counting.
func (j *blockJournal) noteSpan(rank int, items []int) {
	set := j.spans[rank]
	if set == nil {
		set = make(map[int]bool, len(items))
		j.spans[rank] = set
	}
	for _, it := range items {
		set[it] = true
	}
}

// markDone records the completion of one span item by a rank. Marks for
// items outside the declared span are ignored (stale or damaged watermark).
func (j *blockJournal) markDone(rank, item int) {
	if !j.spans[rank][item] {
		return
	}
	set := j.done[rank]
	if set == nil {
		set = map[int]bool{}
		j.done[rank] = set
	}
	set[item] = true
}

// declared reports whether the rank has declared a span.
func (j *blockJournal) declared(rank int) bool { return j.spans[rank] != nil }

// doneCount reports how many span items the rank has completed.
func (j *blockJournal) doneCount(rank int) int { return len(j.done[rank]) }

// unfinished plans the re-issue span for a rank: the sorted span items not
// yet completed. Only streaming commands declare spans, so a completed item
// has already reached the client.
func (j *blockJournal) unfinished(rank int) []int {
	span := j.spans[rank]
	if span == nil {
		return nil
	}
	done := j.done[rank]
	items := make([]int, 0, len(span))
	for it := range span {
		if done[it] {
			continue
		}
		items = append(items, it)
	}
	sort.Ints(items)
	return items
}

// CheckInvariants verifies the scheduler's worker-state bookkeeping: the
// free list holds only free workers without duplicates, every busy ref
// points at a worker in the busy state, and workers outside the schedulable
// states — dead or cordoned — appear in neither set.
// Transients are deliberately tolerated — an old-attempt executor stays
// busy until its stale completion arrives. The fault-scenario and soak
// suites call it after every recovery timeline; a violation means a
// redispatch, declareDead or membership-change interleaving resurrected
// stale state.
func (s *Scheduler) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	for _, n := range s.free {
		if seen[n] {
			return fmt.Errorf("core: free list holds %s twice", n)
		}
		seen[n] = true
		if st := s.state[n]; st != wsFree {
			return fmt.Errorf("core: free list holds %s in state %d", n, st)
		}
		if _, busy := s.busy[n]; busy {
			return fmt.Errorf("core: %s is both free and busy", n)
		}
	}
	for n, ref := range s.busy {
		if st := s.state[n]; st != wsBusy {
			return fmt.Errorf("core: busy ref for %s in state %d", n, st)
		}
		if ar := s.active[ref.reqID]; ar != nil && (ref.rank < 0 || ref.rank >= len(ar.members)) {
			return fmt.Errorf("core: %s busy with req %d rank %d out of range", n, ref.reqID, ref.rank)
		}
	}
	for n, st := range s.state {
		var kind string
		switch st {
		case wsDead:
			kind = "dead"
		case wsCordoned:
			kind = "cordoned"
		default:
			continue
		}
		if seen[n] {
			return fmt.Errorf("core: %s worker %s on the free list", kind, n)
		}
		if _, busy := s.busy[n]; busy {
			return fmt.Errorf("core: %s worker %s still busy", kind, n)
		}
	}
	return nil
}
