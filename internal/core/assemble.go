package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/mesh"
)

// StreamAssembler is the one rule for "is this packet new, and where does it
// go in the mesh". Every consumer of a request's reply stream feeds it the
// messages in arrival order: the in-process Client.Collect, the TCP
// RemoteClient, and the memo cache's log canonicaliser (through admit alone,
// without decoding payloads).
//
// The newest attempt wins: a message of a higher attempt discards everything
// assembled so far (a restarted request re-delivers from scratch), one of a
// lower attempt is dropped. Within an attempt, block-tagged partials (journal
// mode) dedupe by (block, bseq) — a redistributed span restarts the
// producer's sequence numbers, so only the block identity is stable — and
// untagged ones by (rank, seq); first arrival wins. The decoded packets are
// kept as they arrive and merged once, at the exact size, when the final
// message does: untagged geometry in canonical (rank, seq) order, then tagged
// geometry in canonical (block, bseq) order, then the result package — so the
// merged mesh is byte-identical whatever order the packets arrived in, and
// across recovery timelines.
type StreamAssembler struct {
	// Merged is the assembled geometry, filled in when Done latches; the
	// pointer never changes.
	Merged *mesh.Mesh
	// Partials counts the streamed packets assembled under the current
	// attempt; Duplicates the discarded ones (re-streamed after a rank retry,
	// duplicated by link faults, or belonging to a superseded attempt).
	Partials, Duplicates int
	// Attempt is the newest recovery attempt seen (0 for a fault-free run).
	Attempt int
	// Done latches on the final message ("result" or "error"); Err is the
	// server-side failure an "error" final carried.
	Done bool
	Err  error

	seen     map[packetKey]bool
	untagged []keyedPart
	tagged   []keyedPart
}

// packetKey identifies a partial within one attempt: (block, bseq) when
// tagged, (rank, seq) otherwise.
type packetKey struct {
	tagged bool
	a, b   int
}

type keyedPart struct {
	key  packetKey
	part *mesh.Mesh
}

// NewStreamAssembler returns the assembler for one request's stream.
func NewStreamAssembler() *StreamAssembler {
	return &StreamAssembler{Merged: &mesh.Mesh{}, seen: map[packetKey]bool{}}
}

// admit applies the attempt and dedupe rules to one message and reports
// whether it belongs to the canonical stream.
func (a *StreamAssembler) admit(m comm.Message) (key packetKey, ok bool) {
	att := m.Attempt.Or(a.Attempt)
	if att < a.Attempt {
		if m.Kind == "partial" {
			a.Duplicates++
		}
		return key, false
	}
	if att > a.Attempt {
		a.Attempt = att
		a.Duplicates += a.Partials
		a.Partials = 0
		a.seen = map[packetKey]bool{}
		a.untagged, a.tagged = nil, nil
	}
	if m.Kind != "partial" {
		return key, true
	}
	if m.Block.OK {
		key = packetKey{tagged: true, a: m.Block.V, b: m.BSeq.Or(0)}
	} else {
		key = packetKey{a: m.Rank.Or(0), b: m.Seq}
	}
	if a.seen[key] {
		a.Duplicates++
		return key, false
	}
	a.seen[key] = true
	return key, true
}

// Add folds one message of the stream in. ok reports that the message was
// admitted (not stale, not a duplicate); part is the decoded geometry of an
// admitted partial. Once Done, Merged and Err are complete.
func (a *StreamAssembler) Add(m comm.Message) (part *mesh.Mesh, ok bool, err error) {
	key, ok := a.admit(m)
	if !ok {
		return nil, false, nil
	}
	switch m.Kind {
	case "partial":
		if part, err = mesh.DecodeBinary(m.Payload); err != nil {
			return nil, false, fmt.Errorf("core: corrupt partial: %w", err)
		}
		a.Partials++
		if key.tagged {
			a.tagged = append(a.tagged, keyedPart{key, part})
		} else {
			a.untagged = append(a.untagged, keyedPart{key, part})
		}
	case "result":
		final, derr := mesh.DecodeBinary(m.Payload)
		if derr != nil {
			return nil, false, fmt.Errorf("core: corrupt result: %w", derr)
		}
		a.finish(final)
	case "error":
		a.Err = streamError(m)
		a.finish(nil)
	}
	return part, true, nil
}

// finish merges everything delivered — untagged then tagged geometry, each in
// canonical key order, the result package (nil on an error final) last — so a
// failed request keeps it too.
func (a *StreamAssembler) finish(final *mesh.Mesh) {
	parts := make([]*mesh.Mesh, 0, len(a.untagged)+len(a.tagged)+1)
	for _, keyed := range [][]keyedPart{a.untagged, a.tagged} {
		slices.SortFunc(keyed, func(x, y keyedPart) int {
			return cmp.Or(cmp.Compare(x.key.a, y.key.a), cmp.Compare(x.key.b, y.key.b))
		})
		for _, k := range keyed {
			parts = append(parts, k.part)
		}
	}
	a.Merged.AppendAll(append(parts, final))
	a.untagged, a.tagged = nil, nil
	a.Done = true
}

// streamError maps a final "error" message to the typed error it stands for.
func streamError(m comm.Message) error {
	retryAfter := time.Duration(m.IntParam("retry_after_ms", 0)) * time.Millisecond
	switch {
	case m.Params["overloaded"] == "1":
		return &OverloadedError{Reason: m.Params["error"], RetryAfter: retryAfter}
	case m.Params["draining"] == "1":
		return &DrainingError{Reason: m.Params["error"], RetryAfter: retryAfter}
	}
	return fmt.Errorf("core: remote error: %s", m.Params["error"])
}
