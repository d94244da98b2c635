package viracocha

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"net"
	"testing"

	"viracocha/internal/core"
	"viracocha/internal/faults"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

// taggedThenFail streams its span as block-tagged one-triangle packets in
// reverse (non-canonical) order; with fail=1 rank 0 then fails the request,
// so the client sees an error final after tagged partials.
type taggedThenFail struct{}

func (taggedThenFail) Name() string { return "test.taggedfail" }
func (taggedThenFail) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	items := ctx.SpanItems(6, nil)
	for i := len(items) - 1; i >= 0; i-- {
		m := &mesh.Mesh{}
		x := float64(items[i])
		m.AddTriangle(m.AddVertex(mathx.Vec3{X: x}), m.AddVertex(mathx.Vec3{X: x + 0.5}), m.AddVertex(mathx.Vec3{X: x, Y: 1}))
		if err := ctx.StreamBlock(items[i], m); err != nil {
			return nil, err
		}
		ctx.BlockDone(items[i])
	}
	if ctx.Rank == 0 && ctx.IntParam("fail", 0) == 1 {
		return nil, errors.New("boom")
	}
	return nil, nil
}

// TestClientsAssembleIdentically: the same packet sequence — tagged, out of
// canonical order, every packet duplicated on the fabric — assembles to the
// same bytes through the in-process Client and through RemoteClient over a
// loopback Serve, on the success path and when the request fails after its
// tagged partials were delivered (RemoteClient used to return that mesh
// without the tagged geometry).
func TestClientsAssembleIdentically(t *testing.T) {
	for _, fail := range []string{"0", "1"} {
		params := Params("dataset", "tiny", "workers", "2", "redistribute", "1", "fail", fail)
		newSystem := func() *System {
			plan := &faults.Plan{Seed: 5, Links: []faults.LinkRule{{Kind: "partial", Duplicate: 1}}}
			sys := New(Options{Workers: 2, Faults: plan})
			if _, err := sys.AddDataset("tiny", 1); err != nil {
				t.Fatal(err)
			}
			sys.Register(taggedThenFail{})
			return sys
		}

		var local *RunResult
		var localErr error
		newSystem().Session(func(c *Client) {
			local, localErr = c.Run("test.taggedfail", params)
		})

		sys := newSystem()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go sys.Serve(ln)
		rc, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		remote, remoteErr := rc.Run("test.taggedfail", params, nil)
		rc.Close()
		ln.Close()

		if (localErr != nil) != (fail == "1") || (remoteErr != nil) != (fail == "1") {
			t.Fatalf("fail=%s: errors = %v (in-process), %v (TCP)", fail, localErr, remoteErr)
		}
		if local.Merged.NumTriangles() != 6 || local.Duplicates != 6 {
			t.Fatalf("fail=%s: in-process client assembled %d triangles, %d duplicates; want 6, 6",
				fail, local.Merged.NumTriangles(), local.Duplicates)
		}
		if !bytes.Equal(remote.EncodeBinary(), local.Merged.EncodeBinary()) {
			t.Fatalf("fail=%s: TCP client assembled %d triangles, in-process client %d: meshes differ",
				fail, remote.NumTriangles(), local.Merged.NumTriangles())
		}
	}
}

// TestUntaggedStreamIsByteStable: a default streamed request — no
// redistribute, so its partials carry no block tags — merges to the same
// bytes on every run over TCP, however the two ranks' packets interleave on
// the way: the assembler orders untagged geometry by (rank, seq), not by
// arrival.
func TestUntaggedStreamIsByteStable(t *testing.T) {
	_, ln := serveSystem(t, Options{Workers: 2}, "engine", 1)
	defer ln.Close()
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	p := Params("dataset", "engine", "workers", "2", "iso", "500",
		"ex", "-5", "ey", "0.5", "ez", "0.5", "granularity", "1", "memo", "0")
	digests := map[[32]byte]bool{}
	for i := 0; i < 30; i++ {
		m, err := rc.Run("iso.viewer", p, nil)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		digests[sha256.Sum256(m.EncodeBinary())] = true
	}
	if len(digests) != 1 {
		t.Fatalf("30 runs merged to %d distinct meshes, want 1", len(digests))
	}
}
