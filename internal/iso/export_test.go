package iso

import (
	"viracocha/internal/grid"
	"viracocha/internal/mesh"
)

// NewUnpooledExtractor returns an extractor that has never extracted
// anything: the reference a reused extractor's output is compared against.
func NewUnpooledExtractor(b *grid.Block, m *mesh.Mesh) *Extractor {
	e := new(Extractor)
	e.Reset(b, m)
	return e
}

// SetGeneration forces the edge cache's generation stamp, so a test reaches
// the wrap point without four billion Resets.
func (e *Extractor) SetGeneration(g uint32) { e.gen = g }
