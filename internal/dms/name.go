// Package dms implements Viracocha's Data Management System (paper §4): a
// naming service for generic data items, per-node proxies with a two-tier
// cache (main memory over local disk), pluggable replacement policies (LRU,
// LFU, FBR), system prefetching, and a central data-manager server that
// coordinates proxies, answers loading-strategy queries and brokers peer
// transfers across work-group boundaries.
package dms

import (
	"strconv"
	"sync"

	"viracocha/internal/grid"
)

// ItemName fully names a data item: the block it derives from, its entity
// kind and format, and a parameter list (the BSP tree's field, the
// multi-resolution level). Distinct items may derive from the same source
// file (e.g. the same block at different resolution levels), which is why
// file names alone are inadequate (paper §4). The name is a typed,
// comparable key: building one formats nothing, and two names are equal
// exactly when block, kind, field and level are.
type ItemName struct {
	Block grid.BlockID
	kind  itemKind
	Field string // the field a BSP tree orders; "" for a block
	Level int    // multi-resolution level; 0 is the full-resolution item
}

// itemKind is an item's entity kind, which also fixes its format.
type itemKind uint8

const (
	kindBlock itemKind = iota // a grid block, format "vrb"
	kindBSP                   // a BSP tree over one field, format "tree"
)

// String renders the canonical form used in logs:
// "engine/t003/b007:block:vrb", "…:bsp:pressure:tree", "…?level=2".
func (n ItemName) String() string {
	s := n.Block.AppendText(make([]byte, 0, 64))
	if n.kind == kindBSP {
		s = append(s, ":bsp:"...)
		s = append(s, n.Field...)
		s = append(s, ":tree"...)
	} else {
		s = append(s, ":block:vrb"...)
	}
	if n.Level > 0 {
		s = append(s, "?level="...)
		s = strconv.AppendInt(s, int64(n.Level), 10)
	}
	return string(s)
}

// BlockItem is the ItemName of a full-resolution grid block.
func BlockItem(id grid.BlockID) ItemName {
	return ItemName{Block: id, kind: kindBlock}
}

// CoarseBlockItem is the ItemName of a block subsampled to the given
// multi-resolution level; level 0 (or less) names the full-resolution block.
func CoarseBlockItem(id grid.BlockID, level int) ItemName {
	n := BlockItem(id)
	if level > 0 {
		n.Level = level
	}
	return n
}

// BSPItem is the ItemName of the view-dependent BSP tree over one block's
// field. It shares the parent block's source, so the name service keeps the
// relationship visible.
func BSPItem(id grid.BlockID, field string) ItemName {
	return ItemName{Block: id, kind: kindBSP, Field: field}
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
