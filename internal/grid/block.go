// Package grid implements the CFD data model of the reproduction: multi-block
// structured curvilinear grids with node-centred fields, trilinear
// interpolation, Newton point location, multi-resolution coarsening and
// view-dependent BSP ordering. It is the substrate the paper obtains from
// VTK/ViSTA FlowLib and that we build from scratch.
package grid

import (
	"fmt"

	"viracocha/internal/mathx"
)

// BlockID identifies one block of one time step of a data set. It is the unit
// of data handling in the DMS, mirroring the paper's "data item" granularity
// for multi-block data.
type BlockID struct {
	Dataset string
	Step    int
	Block   int
}

// String renders the ID in the canonical "dataset/tNNN/bNNN" form used by
// the naming service.
func (id BlockID) String() string {
	return fmt.Sprintf("%s/t%03d/b%03d", id.Dataset, id.Step, id.Block)
}

// Block is a structured curvilinear grid block: NI×NJ×NK nodes with physical
// coordinates, a velocity field, and any number of named scalar fields. Node
// (i,j,k) lives at linear index i + NI·(j + NJ·k).
type Block struct {
	ID         BlockID
	NI, NJ, NK int

	// Points holds node coordinates, 3 floats per node (x,y,z).
	Points []float32
	// Velocity holds the flow velocity, 3 floats per node (u,v,w).
	Velocity []float32
	// Scalars holds named node-centred scalar fields (e.g. "pressure").
	Scalars map[string][]float32
}

// NewBlock allocates a block with the given node dimensions and an empty
// scalar map. Dimensions must each be at least 2 so the block has cells.
func NewBlock(id BlockID, ni, nj, nk int) *Block {
	if ni < 2 || nj < 2 || nk < 2 {
		panic(fmt.Sprintf("grid: block %v needs dims ≥ 2, got %d×%d×%d", id, ni, nj, nk))
	}
	n := ni * nj * nk
	return &Block{
		ID: id, NI: ni, NJ: nj, NK: nk,
		Points:   make([]float32, 3*n),
		Velocity: make([]float32, 3*n),
		Scalars:  map[string][]float32{},
	}
}

// NumNodes reports the number of grid nodes.
func (b *Block) NumNodes() int { return b.NI * b.NJ * b.NK }

// NumCells reports the number of hexahedral cells.
func (b *Block) NumCells() int { return (b.NI - 1) * (b.NJ - 1) * (b.NK - 1) }

// Index returns the linear node index of (i,j,k).
func (b *Block) Index(i, j, k int) int { return i + b.NI*(j+b.NJ*k) }

// Point returns the physical coordinates of node (i,j,k).
func (b *Block) Point(i, j, k int) mathx.Vec3 {
	n := 3 * b.Index(i, j, k)
	return mathx.Vec3{X: float64(b.Points[n]), Y: float64(b.Points[n+1]), Z: float64(b.Points[n+2])}
}

// SetPoint stores the physical coordinates of node (i,j,k).
func (b *Block) SetPoint(i, j, k int, p mathx.Vec3) {
	n := 3 * b.Index(i, j, k)
	b.Points[n] = float32(p.X)
	b.Points[n+1] = float32(p.Y)
	b.Points[n+2] = float32(p.Z)
}

// Vel returns the velocity at node (i,j,k).
func (b *Block) Vel(i, j, k int) mathx.Vec3 {
	n := 3 * b.Index(i, j, k)
	return mathx.Vec3{X: float64(b.Velocity[n]), Y: float64(b.Velocity[n+1]), Z: float64(b.Velocity[n+2])}
}

// SetVel stores the velocity at node (i,j,k).
func (b *Block) SetVel(i, j, k int, v mathx.Vec3) {
	n := 3 * b.Index(i, j, k)
	b.Velocity[n] = float32(v.X)
	b.Velocity[n+1] = float32(v.Y)
	b.Velocity[n+2] = float32(v.Z)
}

// EnsureScalar returns the storage for field name, allocating it if absent.
func (b *Block) EnsureScalar(name string) []float32 {
	if f, ok := b.Scalars[name]; ok {
		return f
	}
	f := make([]float32, b.NumNodes())
	b.Scalars[name] = f
	return f
}

// HasScalar reports whether the named field is present.
func (b *Block) HasScalar(name string) bool {
	_, ok := b.Scalars[name]
	return ok
}

// SizeBytes reports the in-memory payload size of the block: coordinates,
// velocity and all scalar fields. The DMS uses it for cache accounting.
func (b *Block) SizeBytes() int64 {
	n := int64(len(b.Points)+len(b.Velocity)) * 4
	for _, f := range b.Scalars {
		n += int64(len(f)) * 4
	}
	return n
}

// Bounds returns the axis-aligned bounding box of the block's nodes.
func (b *Block) Bounds() AABB {
	box := EmptyAABB()
	for n := 0; n < len(b.Points); n += 3 {
		box.Extend(mathx.Vec3{X: float64(b.Points[n]), Y: float64(b.Points[n+1]), Z: float64(b.Points[n+2])})
	}
	return box
}

// CellOffsets returns the linear-index offsets of a cell's 8 corners
// relative to corner 0, in the VTK hexahedron order used by the
// triangulator. The offsets are identical for every cell of the block, so
// scan loops hoist them out of the per-cell hot path and advance corner 0's
// index incrementally instead of recomputing all eight corners per cell.
func (b *Block) CellOffsets() [8]int {
	nij := b.NI * b.NJ
	return [8]int{
		0,
		1,
		1 + b.NI,
		b.NI,
		nij,
		1 + nij,
		1 + b.NI + nij,
		b.NI + nij,
	}
}

// CellCorners returns the 8 node indices of cell (ci,cj,ck) in the VTK
// hexahedron corner order used by the triangulator:
//
//	0:(i,j,k) 1:(i+1,j,k) 2:(i+1,j+1,k) 3:(i,j+1,k)
//	4:(i,j,k+1) 5:(i+1,j,k+1) 6:(i+1,j+1,k+1) 7:(i,j+1,k+1)
func (b *Block) CellCorners(ci, cj, ck int) [8]int {
	i0 := b.Index(ci, cj, ck)
	off := b.CellOffsets()
	for n := range off {
		off[n] += i0
	}
	return off
}

// AABB is an axis-aligned bounding box.
type AABB struct {
	Min, Max mathx.Vec3
}

// EmptyAABB returns an inverted box that Extend can grow from.
func EmptyAABB() AABB {
	inf := 1e300
	return AABB{
		Min: mathx.Vec3{X: inf, Y: inf, Z: inf},
		Max: mathx.Vec3{X: -inf, Y: -inf, Z: -inf},
	}
}

// Extend grows the box to include p.
func (a *AABB) Extend(p mathx.Vec3) {
	if p.X < a.Min.X {
		a.Min.X = p.X
	}
	if p.Y < a.Min.Y {
		a.Min.Y = p.Y
	}
	if p.Z < a.Min.Z {
		a.Min.Z = p.Z
	}
	if p.X > a.Max.X {
		a.Max.X = p.X
	}
	if p.Y > a.Max.Y {
		a.Max.Y = p.Y
	}
	if p.Z > a.Max.Z {
		a.Max.Z = p.Z
	}
}

// Contains reports whether p lies in the box (inclusive), with slack eps to
// absorb float32 coordinate rounding.
func (a AABB) Contains(p mathx.Vec3, eps float64) bool {
	return p.X >= a.Min.X-eps && p.X <= a.Max.X+eps &&
		p.Y >= a.Min.Y-eps && p.Y <= a.Max.Y+eps &&
		p.Z >= a.Min.Z-eps && p.Z <= a.Max.Z+eps
}

// Center returns the midpoint of the box.
func (a AABB) Center() mathx.Vec3 {
	return mathx.Vec3{
		X: 0.5 * (a.Min.X + a.Max.X),
		Y: 0.5 * (a.Min.Y + a.Max.Y),
		Z: 0.5 * (a.Min.Z + a.Max.Z),
	}
}

// Union returns the smallest box containing both a and b.
func (a AABB) Union(b AABB) AABB {
	a.Extend(b.Min)
	a.Extend(b.Max)
	return a
}

// Diagonal returns the length of the box diagonal.
func (a AABB) Diagonal() float64 { return a.Max.Sub(a.Min).Norm() }
