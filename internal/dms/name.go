// Package dms implements Viracocha's Data Management System (paper §4): a
// naming service for generic data items, per-node proxies with a two-tier
// cache (main memory over local disk), pluggable replacement policies (LRU,
// LFU, FBR), system prefetching, and a central data-manager server that
// coordinates proxies, answers loading-strategy queries and brokers peer
// transfers across work-group boundaries.
package dms

import (
	"fmt"
	"sync"

	"viracocha/internal/grid"
)

// ItemName fully names a data item: a source, a data type and format, and an
// optional parameter list. Distinct items may derive from the same source
// file (e.g. the same block at different resolution levels), which is why
// file names alone are inadequate (paper §4).
type ItemName struct {
	Source string // e.g. "engine/t003/b007"
	Type   string // e.g. "block"
	Format string // e.g. "vrb"
	Params string // e.g. "level=2", "" for the full-resolution item
}

// String renders the canonical form used in logs.
func (n ItemName) String() string {
	s := n.Source + ":" + n.Type + ":" + n.Format
	if n.Params != "" {
		s += "?" + n.Params
	}
	return s
}

// BlockItem is the ItemName of a full-resolution grid block.
func BlockItem(id grid.BlockID) ItemName {
	return ItemName{Source: id.String(), Type: "block", Format: "vrb"}
}

// CoarseBlockItem is the ItemName of a block subsampled to the given
// multi-resolution level.
func CoarseBlockItem(id grid.BlockID, level int) ItemName {
	n := BlockItem(id)
	if level > 0 {
		n.Params = fmt.Sprintf("level=%d", level)
	}
	return n
}

// IndexItem is the ItemName of the min/max brick acceleration index over one
// block's field (entity kind "index:<field>"). Derived entities share the
// parent block's source, so the name service keeps the relationship visible.
func IndexItem(id grid.BlockID, field string) ItemName {
	return ItemName{Source: id.String(), Type: "index:" + field, Format: "minmax"}
}

// GradIndexItem is the ItemName of the vortex-skip index: the min/max brick
// summary of the squared velocity-gradient magnitude, from which λ2 is
// bounded without being computed.
func GradIndexItem(id grid.BlockID) ItemName {
	return IndexItem(id, grid.GradMagField)
}

// Lambda2Item is the ItemName of a block's derived λ2 scalar field (entity
// kind "l2"; the time step is part of the source).
func Lambda2Item(id grid.BlockID) ItemName {
	return ItemName{Source: id.String(), Type: "l2", Format: "field"}
}

// BSPItem is the ItemName of the view-dependent BSP tree over one block's
// field (entity kind "bsp:<field>").
func BSPItem(id grid.BlockID, field string) ItemName {
	return ItemName{Source: id.String(), Type: "bsp:" + field, Format: "tree"}
}

// ItemID is the unambiguous identifier a NameServer assigns to an ItemName.
// Proxies cache and exchange items by ID.
type ItemID uint64

// NameServer issues globally unique ItemIDs; it lives at the data-manager
// server on the scheduler node.
type NameServer struct {
	mu   sync.Mutex
	ids  map[ItemName]ItemID
	next ItemID
}

// NewNameServer returns an empty name server.
func NewNameServer() *NameServer {
	return &NameServer{ids: map[ItemName]ItemID{}}
}

// Resolve returns the ID for a name, assigning a fresh one on first use.
func (s *NameServer) Resolve(n ItemName) ItemID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[n]; ok {
		return id
	}
	s.next++
	s.ids[n] = s.next
	return s.next
}

// Resolver is the proxy-side name resolver: it translates names to IDs,
// caching mappings locally and consulting the central name server on
// misses (a charged round trip in the proxy, see Proxy.resolve).
type Resolver struct {
	server *NameServer

	mu  sync.Mutex
	ids map[ItemName]ItemID
}

// NewResolver returns a resolver bound to the central name server.
func NewResolver(server *NameServer) *Resolver {
	return &Resolver{server: server, ids: map[ItemName]ItemID{}}
}

// Resolve returns the ID for the name and whether the central server had to
// be consulted (remote=true), so the caller can charge communication.
func (r *Resolver) Resolve(n ItemName) (id ItemID, remote bool) {
	r.mu.Lock()
	if id, ok := r.ids[n]; ok {
		r.mu.Unlock()
		return id, false
	}
	r.mu.Unlock()
	id = r.server.Resolve(n)
	r.mu.Lock()
	r.ids[n] = id
	r.mu.Unlock()
	return id, true
}
