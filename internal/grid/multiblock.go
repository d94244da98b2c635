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
