package iso_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/iso"
	"viracocha/internal/mesh"
)

// reuseBlocks are a large block (engine scale 3, 17,920 nodes) and a small
// one (propfan scale 1, 288 nodes).
func reuseBlocks() (large, small *grid.Block) {
	return dataset.Engine().WithScale(3).Generate(0, 0), dataset.Propfan().Generate(0, 0)
}

func wholeBlock(b *grid.Block) grid.CellRange {
	return grid.CellRange{Hi: [3]int{b.NI - 1, b.NJ - 1, b.NK - 1}}
}

// freshExtract is the reference: the block extracted by an extractor that
// has never seen another.
func freshExtract(t *testing.T, b *grid.Block, isoVal float64) []byte {
	t.Helper()
	var m mesh.Mesh
	e := iso.NewUnpooledExtractor(b, &m)
	if e.Range(b.Scalars["pressure"], isoVal, wholeBlock(b)).Triangles == 0 {
		t.Fatalf("block %v: no surface at iso %v", b.ID, isoVal)
	}
	return m.EncodeBinary()
}

// TestExtractorReuseMatchesFresh runs one extractor over a large block, a
// small one and the large one again at another iso value, and checks every
// mesh against a fresh extractor's, byte for byte. A small block uses a
// prefix of the table the large one filled, so a stale slot read as live
// would show here. The sequence then runs twice more, each time with the
// generation stamp forced to the wrap point: the first pass after a wrap
// stamps the first large surface with generation 1, and the second finds
// those stamps again unless the wrap cleared the table.
func TestExtractorReuseMatchesFresh(t *testing.T) {
	large, small := reuseBlocks()
	seq := []struct {
		b   *grid.Block
		iso float64
	}{{large, 500}, {small, -700}, {large, 850}}
	want := make([][]byte, len(seq))
	for i, s := range seq {
		want[i] = freshExtract(t, s.b, s.iso)
	}
	var m mesh.Mesh
	e := iso.NewUnpooledExtractor(large, &m)
	for pass := 0; pass < 3; pass++ {
		if pass > 0 {
			e.SetGeneration(math.MaxUint32)
		}
		for i, s := range seq {
			m.Reset()
			e.Reset(s.b, &m)
			e.Range(s.b.Scalars["pressure"], s.iso, wholeBlock(s.b))
			if got := m.EncodeBinary(); !bytes.Equal(got, want[i]) {
				t.Fatalf("pass %d, step %d (%v at iso %v): reused extractor's mesh differs from a fresh one's",
					pass, i, s.b.ID, s.iso)
			}
		}
	}
}

// TestExtractorResetAllocatesNothing is the steady-state allocation guard of
// the edge table: once it has grown to the largest block, a held extractor
// Reset between blocks of different sizes allocates nothing.
func TestExtractorResetAllocatesNothing(t *testing.T) {
	large, small := reuseBlocks()
	var m mesh.Mesh
	e := iso.NewExtractor(small, &m)
	defer e.Close()
	cycle := func() {
		for _, s := range [...]struct {
			b   *grid.Block
			iso float64
		}{{small, -700}, {large, 500}} {
			m.Reset()
			e.Reset(s.b, &m)
			e.Range(s.b.Scalars["pressure"], s.iso, wholeBlock(s.b))
		}
	}
	cycle() // grow the edge table and the mesh
	runtime.GC()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("held extractor Reset across block sizes allocates %v times per cycle, want 0", allocs)
	}
}
