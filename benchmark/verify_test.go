package main

import (
	"errors"
	"testing"

	"viracocha/internal/iso"
	"viracocha/internal/mesh"
)

// tinyRequests writes the tiny data set and returns a verifier primed for a
// few requests of the slider workload on it.
func tinyRequests(t *testing.T) (*verifier, []request, *dataSet) {
	t.Helper()
	w, err := workloadByName("iso_slider_warm")
	if err != nil {
		t.Fatal(err)
	}
	w = w.tinyVariant()
	data, err := writeDataSet(t.TempDir(), &w)
	if err != nil {
		t.Fatal(err)
	}
	reqs := w.list(1, 4)
	v := newVerifier(data)
	if err := v.prepare(reqs); err != nil {
		t.Fatal(err)
	}
	return v, reqs, data
}

func TestVerifierRejectsATruncatedMesh(t *testing.T) {
	v, reqs, data := tinyRequests(t)
	r := reqs[0]
	blocks, err := stepBlocks(data, r.Step)
	if err != nil {
		t.Fatal(err)
	}
	m := &mesh.Mesh{}
	for _, b := range blocks {
		iso.ExtractBlock(b, "pressure", r.Value, m)
	}
	if m.NumTriangles() < 2 {
		t.Fatalf("request %s yields %d triangles: too few to truncate", r.key(), m.NumTriangles())
	}
	good := sample{Index: 0, Tris: m.NumTriangles(), Area: m.Area()}
	if failed, why := v.check(reqs, []sample{good}); failed != 0 {
		t.Fatalf("the kernel's own mesh was rejected: %v", why)
	}

	m.Indices = m.Indices[:len(m.Indices)-3] // lose the last triangle
	cut := sample{Index: 0, Tris: m.NumTriangles(), Area: m.Area()}
	if failed, _ := v.check(reqs, []sample{cut}); failed != 1 {
		t.Error("a mesh one triangle short passed verification")
	}

	// Same triangle count, a vertex moved: only the area can tell.
	moved := good
	moved.Area *= 1 + 1e-4
	if failed, _ := v.check(reqs, []sample{moved}); failed != 1 {
		t.Error("a mesh with the wrong area passed verification")
	}
}

func TestVerifierCountsErrorsAsFailures(t *testing.T) {
	v, reqs, _ := tinyRequests(t)
	rejected := sample{Index: 1, Err: errors.New("overloaded: queue full")}
	failed, why := v.check(reqs, []sample{rejected})
	if failed != 1 || len(why) != 1 {
		t.Errorf("failed = %d, reasons = %v; want one failure with its reason", failed, why)
	}
}
