package prefetch

import (
	"testing"

	"viracocha/internal/grid"
)

func id(step, block int) grid.BlockID {
	return grid.BlockID{Dataset: "d", Step: step, Block: block}
}

func TestFileOrder(t *testing.T) {
	next := FileOrder(3, 4)
	n, ok := next(id(0, 0))
	if !ok || n != id(0, 1) {
		t.Fatalf("next(0,0) = %v,%v", n, ok)
	}
	n, ok = next(id(0, 3))
	if !ok || n != id(1, 0) {
		t.Fatalf("next(0,3) = %v,%v (should wrap to next step)", n, ok)
	}
	if _, ok = next(id(2, 3)); ok {
		t.Fatal("last block of last step must have no successor")
	}
}

func TestNone(t *testing.T) {
	var p None
	p.Record(id(0, 0), true)
	if got := p.Suggest(id(0, 0)); got != nil {
		t.Fatalf("None suggested %v", got)
	}
	if p.Name() != "none" {
		t.Fatal("name")
	}
}

func TestOBLAlwaysSuggestsSuccessor(t *testing.T) {
	p := NewOBL(FileOrder(2, 3))
	p.Record(id(0, 1), false) // hit or miss is irrelevant for OBL
	got := p.Suggest(id(0, 1))
	if len(got) != 1 || got[0] != id(0, 2) {
		t.Fatalf("Suggest = %v", got)
	}
	if got := p.Suggest(id(1, 2)); got != nil {
		t.Fatalf("Suggest at end = %v, want nil", got)
	}
}

func TestOnMissOnlySuggestsAfterMiss(t *testing.T) {
	p := NewOnMiss(FileOrder(2, 3))
	p.Record(id(0, 0), false)
	if got := p.Suggest(id(0, 0)); got != nil {
		t.Fatalf("hit should not prefetch, got %v", got)
	}
	p.Record(id(0, 1), true)
	got := p.Suggest(id(0, 1))
	if len(got) != 1 || got[0] != id(0, 2) {
		t.Fatalf("miss should prefetch successor, got %v", got)
	}
}

func TestMarkovLearnsNonSequentialPattern(t *testing.T) {
	// A pathline-like request stream: 0 → 2 → 1 → 3, repeated. OBL would
	// always predict +1 and be wrong; Markov must learn the real pattern.
	p := NewMarkov(1, nil)
	seq := []int{0, 2, 1, 3}
	for rep := 0; rep < 3; rep++ {
		for _, b := range seq {
			p.Record(id(0, b), true)
		}
	}
	cases := map[int]int{0: 2, 2: 1, 1: 3}
	for cur, want := range cases {
		got := p.Suggest(id(0, cur))
		if len(got) != 1 || got[0] != id(0, want) {
			t.Fatalf("Suggest(%d) = %v, want block %d", cur, got, want)
		}
	}
}

func TestMarkovFallsBackToOBLDuringLearning(t *testing.T) {
	p := NewMarkov(1, NewOBL(FileOrder(2, 5)))
	// Nothing recorded: an unseen context must defer to OBL.
	got := p.Suggest(id(0, 2))
	if len(got) != 1 || got[0] != id(0, 3) {
		t.Fatalf("fallback Suggest = %v, want (0,3)", got)
	}
}

func TestMarkovPrefersMostFrequentSuccessor(t *testing.T) {
	p := NewMarkov(1, nil)
	// After block 0: twice block 5, once block 1.
	stream := []int{0, 5, 0, 1, 0, 5}
	for _, b := range stream {
		p.Record(id(0, b), true)
	}
	got := p.Suggest(id(0, 0))
	if len(got) != 1 || got[0] != id(0, 5) {
		t.Fatalf("Suggest = %v, want the majority successor (0,5)", got)
	}
}

func TestMarkovSecondOrderDisambiguates(t *testing.T) {
	// Stream alternates: (1,2)→3 and (4,2)→5. First-order "after 2" is
	// ambiguous; second-order resolves it by context.
	p := NewMarkov(2, nil)
	stream := []int{1, 2, 3, 4, 2, 5, 1, 2, 3, 4, 2, 5, 1, 2}
	for _, b := range stream {
		p.Record(id(0, b), true)
	}
	// History now ends with (1,2): prediction must be 3, not 5.
	got := p.Suggest(id(0, 2))
	if len(got) != 1 || got[0] != id(0, 3) {
		t.Fatalf("Suggest = %v, want (0,3) from context (1,2)", got)
	}
}

func TestMarkovOrderClamp(t *testing.T) {
	if NewMarkov(0, nil).Order != 1 {
		t.Fatal("order must clamp to 1")
	}
}

func TestMarkovDeterministicTieBreak(t *testing.T) {
	p := NewMarkov(1, nil)
	// Tie: after 0, blocks 1 and 2 once each.
	for _, b := range []int{0, 1, 0, 2} {
		p.Record(id(0, b), true)
	}
	a := p.Suggest(id(0, 0))
	b := p.Suggest(id(0, 0))
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("tie-break not deterministic: %v vs %v", a, b)
	}
}

func TestMarkovConcurrentAccess(t *testing.T) {
	p := NewMarkov(1, NewOBL(FileOrder(10, 10)))
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				p.Record(id(g, i%10), i%2 == 0)
				p.Suggest(id(g, i%10))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
