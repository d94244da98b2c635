package session

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"viracocha/internal/commands"
	"viracocha/internal/core"
	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
)

func testScript() *Script {
	return &Script{
		Name: "iso sweep",
		Steps: []Step{
			{Label: "first look", Command: "iso.dataman",
				Params: map[string]string{"dataset": "tiny", "workers": "2", "iso": "0.3"},
				Think:  2 * time.Second},
			{Label: "adjust", Command: "iso.dataman",
				Params: map[string]string{"dataset": "tiny", "workers": "2", "iso": "0.6"},
				Think:  5 * time.Second},
		},
	}
}

func TestScriptEncodeDecodeRoundTrip(t *testing.T) {
	s := testScript()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || len(got.Steps) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	if got.Steps[1].Think != 5*time.Second || got.Steps[1].Params["iso"] != "0.6" {
		t.Fatalf("step 1 = %+v", got.Steps[1])
	}
}

func TestDecodeRejectsBadScripts(t *testing.T) {
	if _, err := Decode([]byte("{nope")); err == nil {
		t.Fatal("expected JSON error")
	}
	if _, err := Decode([]byte(`{"name":"x","steps":[]}`)); err == nil {
		t.Fatal("expected empty-script error")
	}
	if _, err := Decode([]byte(`{"name":"x","steps":[{"params":{}}]}`)); err == nil {
		t.Fatal("expected missing-command error")
	}
}

func newRuntime(v vclock.Clock) *core.Runtime {
	cfg := core.DefaultConfig(2)
	cfg.Model = core.Model{}
	rt := core.NewRuntime(v, cfg)
	rt.RegisterDataset(dataset.Tiny())
	dev := storage.NewDevice("disk", &storage.GenBackend{Desc: dataset.Tiny()}, v, time.Millisecond, 10e6, 1)
	rt.RegisterDevice(dev, func(grid.BlockID) int64 { return 4096 })
	commands.RegisterAll(rt)
	rt.Start()
	return rt
}

func TestReplayProducesPerStepResults(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newRuntime(v)
	var results []StepResult
	v.Go(func() {
		cl := core.NewClient(rt)
		results = Replay(cl, v, testScript())
		rt.Shutdown()
	})
	v.Wait()
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("step %d failed: %v", i, r.Err)
		}
		if r.Triangles == 0 {
			t.Fatalf("step %d produced no geometry", i)
		}
		if r.Total < r.FirstFeedback {
			t.Fatalf("step %d: total %v below first feedback %v", i, r.Total, r.FirstFeedback)
		}
	}
	// Think times elapsed on the virtual clock: at least 7s total.
	if v.Now() < 7*time.Second {
		t.Fatalf("session clock = %v, want ≥ think times", v.Now())
	}
}

func TestReplayContinuesPastErrors(t *testing.T) {
	v := vclock.NewVirtual()
	rt := newRuntime(v)
	script := &Script{Name: "flaky", Steps: []Step{
		{Command: "no.such.command", Params: map[string]string{"dataset": "tiny"}},
		{Command: "iso.dataman", Params: map[string]string{"dataset": "tiny", "iso": "0.5"}},
	}}
	var results []StepResult
	v.Go(func() {
		cl := core.NewClient(rt)
		results = Replay(cl, v, script)
		rt.Shutdown()
	})
	v.Wait()
	if results[0].Err == nil {
		t.Fatal("bad step should fail")
	}
	if results[1].Err != nil || results[1].Triangles == 0 {
		t.Fatalf("session did not continue: %+v", results[1])
	}
}

func TestSummarize(t *testing.T) {
	results := []StepResult{
		{FirstFeedback: 1 * time.Second, Total: 5 * time.Second},
		{FirstFeedback: 3 * time.Second, Total: 6 * time.Second},
		{FirstFeedback: 10 * time.Second, Total: 12 * time.Second},
		{Err: errFake},
	}
	s := Summarize(results, 4*time.Second)
	if s.Steps != 4 || s.Errors != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.MedianFirst != 3*time.Second {
		t.Fatalf("median = %v", s.MedianFirst)
	}
	if s.WorstFirst != 10*time.Second {
		t.Fatalf("worst = %v", s.WorstFirst)
	}
	if s.WithinBudget != 2 {
		t.Fatalf("within budget = %d", s.WithinBudget)
	}
	if s.TotalSession != 23*time.Second {
		t.Fatalf("total = %v", s.TotalSession)
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, time.Second)
	if s.Steps != 0 || s.MedianFirst != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestScriptJSONIsHumanEditable(t *testing.T) {
	data, _ := json.MarshalIndent(testScript(), "", "  ")
	if !strings.Contains(string(data), "\"command\": \"iso.dataman\"") {
		t.Fatalf("unexpected JSON shape:\n%s", data)
	}
}
