package grid

// MultiBlock is one time step of a multi-block data set: an ordered set of
// blocks covering the simulation domain.
type MultiBlock struct {
	Dataset string
	Step    int
	Blocks  []*Block
}

// NewMultiBlock wraps blocks into a time-step container.
func NewMultiBlock(dataset string, step int, blocks []*Block) *MultiBlock {
	return &MultiBlock{Dataset: dataset, Step: step, Blocks: blocks}
}

// Bounds returns the union of all block bounding boxes.
func (m *MultiBlock) Bounds() AABB {
	box := EmptyAABB()
	for _, b := range m.Blocks {
		box = box.Union(b.Bounds())
	}
	return box
}
