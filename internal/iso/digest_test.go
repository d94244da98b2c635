package iso

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/mesh"
)

// digestCase is one block of a real data set with the iso values run on it.
type digestCase struct {
	b    *grid.Block
	isos []float64
}

// digestCases interleaves engine scale-3 blocks (17,920 nodes) with propfan
// scale-1 blocks (288 nodes), so one held extractor goes large → small →
// large, as a viewer's does across the blocks of a mixed request.
func digestCases() []digestCase {
	engine, propfan := dataset.Engine().WithScale(3), dataset.Propfan()
	engineIsos := []float64{-100, 200, 500, 850, 920}
	propfanIsos := []float64{-700, -850, -1000, -1300}
	var cs []digestCase
	for i, eb := range []int{0, 7, 15, 22} {
		cs = append(cs, digestCase{engine.Generate(0, eb), engineIsos})
		cs = append(cs, digestCase{propfan.Generate(0, []int{0, 50, 100, 143}[i]), propfanIsos})
	}
	return cs
}

// extractDigest runs the kernel the way iso.viewer drives it — one extractor
// held across blocks, two BSP-like ranges of a block in reverse k order into
// one packet, a flush (mesh Reset + Rebind), then a third, overlapping range
// into the next packet that carries over into the next block's Reset — plus
// the per-cell path of progressive refinement and the streamed vortex
// command. It returns the SHA-256 of every packet's wire bytes and counters.
func extractDigest() string {
	h := sha256.New()
	var m mesh.Mesh
	var buf []byte
	packet := func(res ...Result) {
		buf = m.AppendBinary(buf[:0])
		h.Write(buf)
		fmt.Fprint(h, res)
	}
	cs := digestCases()
	e := NewExtractor(cs[0].b, &m)
	defer e.Close()
	for _, c := range cs {
		b := c.b
		vals := b.Scalars["pressure"]
		idx := grid.BuildMinMax(b, "pressure", vals)
		ni, nj, nk := b.NI-1, b.NJ-1, b.NK-1
		upper := grid.CellRange{Lo: [3]int{0, 0, nk / 2}, Hi: [3]int{ni, nj, nk}}
		lower := grid.CellRange{Hi: [3]int{ni, nj, nk / 2}}
		middle := grid.CellRange{Lo: [3]int{0, 0, nk / 4}, Hi: [3]int{ni, nj, 3 * nk / 4}}
		for _, iso := range c.isos {
			e.Reset(b, &m)
			r1 := e.RangeIndexed(vals, iso, upper, idx)
			r2 := e.Range(vals, iso, lower)
			packet(r1, r2)
			m.Reset()
			e.Rebind(&m)
			packet(e.RangeIndexed(vals, iso, middle, idx))
		}
		// Cell path, cells in reverse row-major order.
		m.Reset()
		e.Reset(b, &m)
		tris := 0
		for ck := nk - 1; ck >= 0; ck-- {
			for cj := nj - 1; cj >= 0; cj-- {
				for ci := ni - 1; ci >= 0; ci-- {
					tris += e.Cell(vals, c.isos[1], ci, cj, ck)
				}
			}
		}
		packet(Result{Triangles: tris})
		m.Reset()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedDigest is extractDigest's output recorded on the map-based edge
// cache the direct-indexed table replaced: the welded kernel's bytes —
// vertex order, vertex reuse across ranges, forgetting at Reset and Rebind —
// must never move.
const pinnedDigest = "e22e7a573d60b9cbe12ad684ac8d00571ffaf76c554b444f3f2ff461d54f7392"

// TestExtractorDigestPinned is the byte-identity guard of the welded kernel.
func TestExtractorDigestPinned(t *testing.T) {
	if got := extractDigest(); got != pinnedDigest {
		t.Fatalf("extraction digest %s, pinned %s", got, pinnedDigest)
	}
}
