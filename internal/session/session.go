// Package session scripts and replays interactive exploration sessions: the
// trial-and-error loop of §1.1 in which a user repeatedly issues extraction
// commands with adjusted parameters, judges the result, and moves on.
// Scripts are JSON so they can be written once and replayed against
// different system configurations — the closest a headless reproduction can
// get to the user studies the paper defers to future work, and the basis of
// the interaction experiment in the bench harness.
package session

import (
	"encoding/json"
	"fmt"
	"time"

	"viracocha/internal/core"
	"viracocha/internal/vclock"
)

// Step is one user interaction: a command issued after some think time.
type Step struct {
	// Label names the interaction for reports ("iso sweep 1/3").
	Label string `json:"label,omitempty"`
	// Command and Params are passed to the client verbatim.
	Command string            `json:"command"`
	Params  map[string]string `json:"params"`
	// Think is how long the user pondered before issuing this step.
	Think time.Duration `json:"think_ns"`
}

// Script is a recorded session.
type Script struct {
	Name  string `json:"name"`
	Steps []Step `json:"steps"`
}

// Encode serializes the script as indented JSON.
func (s *Script) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Decode parses a script written by Encode.
func Decode(data []byte) (*Script, error) {
	var s Script
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	if len(s.Steps) == 0 {
		return nil, fmt.Errorf("session: script %q has no steps", s.Name)
	}
	for i, st := range s.Steps {
		if st.Command == "" {
			return nil, fmt.Errorf("session: step %d has no command", i)
		}
	}
	return &s, nil
}

// StepResult is what the user experienced for one interaction.
type StepResult struct {
	Label   string
	Command string
	// FirstFeedback is the time from issuing the command until the first
	// visualizable data arrived — the quantity streaming exists to shrink.
	FirstFeedback time.Duration
	// Total is the time until the final result.
	Total time.Duration
	// Triangles is the size of the final geometry (0 for point results).
	Triangles int
	// Partials counts streamed packets.
	Partials int
	Err      error
}

// Replay runs the script through the client, sleeping the recorded think
// times, and returns one result per step. A step error is recorded and the
// session continues, as a human would retry rather than abort. Must be
// called from a clock actor.
func Replay(cl *core.Client, clock vclock.Clock, script *Script) []StepResult {
	out := make([]StepResult, 0, len(script.Steps))
	for _, st := range script.Steps {
		clock.Sleep(st.Think)
		res, err := cl.Run(st.Command, st.Params)
		sr := StepResult{Label: st.Label, Command: st.Command, Err: err}
		if res != nil {
			sr.FirstFeedback = res.Latency()
			sr.Total = res.Total()
			sr.Triangles = res.Merged.NumTriangles()
			sr.Partials = res.Partials
		}
		out = append(out, sr)
	}
	return out
}

// Summary condenses step results for reporting.
type Summary struct {
	Steps         int
	Errors        int
	MedianFirst   time.Duration
	WorstFirst    time.Duration
	TotalSession  time.Duration
	WithinBudget  int // steps whose first feedback met the budget
	BudgetApplied time.Duration
}

// Summarize computes the interaction summary with the given first-feedback
// budget (e.g. 2s for "feels responsive in a VR session").
func Summarize(results []StepResult, budget time.Duration) Summary {
	s := Summary{Steps: len(results), BudgetApplied: budget}
	firsts := make([]time.Duration, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			s.Errors++
			continue
		}
		firsts = append(firsts, r.FirstFeedback)
		s.TotalSession += r.Total
		if r.FirstFeedback > s.WorstFirst {
			s.WorstFirst = r.FirstFeedback
		}
		if r.FirstFeedback <= budget {
			s.WithinBudget++
		}
	}
	if len(firsts) > 0 {
		// Insertion sort: the slices are tiny.
		for i := 1; i < len(firsts); i++ {
			for j := i; j > 0 && firsts[j] < firsts[j-1]; j-- {
				firsts[j], firsts[j-1] = firsts[j-1], firsts[j]
			}
		}
		s.MedianFirst = firsts[len(firsts)/2]
	}
	return s
}
