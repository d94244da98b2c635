package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"viracocha/internal/dataset"
	"viracocha/internal/grid"
)

// Backend retrieves raw blocks without any timing semantics. Device wraps a
// backend to add the cost model.
type Backend interface {
	// Fetch returns the block and the number of bytes its stored
	// representation occupies (used for transfer-time accounting when the
	// device has no explicit charge function).
	Fetch(id grid.BlockID) (*grid.Block, int64, error)
}

// GenBackend synthesizes blocks on demand from a data-set descriptor. It is
// the stand-in for the paper's pre-computed simulation files: the bytes the
// solver would have written exist only virtually, but every load yields the
// same deterministic block a file read would have.
type GenBackend struct {
	Desc *dataset.Desc
}

// Fetch generates the requested block. The reported size is the encoded
// wire size of the generated block.
func (g *GenBackend) Fetch(id grid.BlockID) (*grid.Block, int64, error) {
	if id.Dataset != g.Desc.Name {
		return nil, 0, fmt.Errorf("storage: backend holds %q, asked for %q", g.Desc.Name, id.Dataset)
	}
	if id.Step < 0 || id.Step >= g.Desc.Steps || id.Block < 0 || id.Block >= g.Desc.Blocks {
		return nil, 0, fmt.Errorf("storage: %v out of range for %s", id, g.Desc.Name)
	}
	b := g.Desc.Generate(id.Step, id.Block)
	return b, b.SizeBytes(), nil
}

// MemBackend is a concurrency-safe in-memory block store, used as the
// fastest tier in tests and as the peer-transfer source.
type MemBackend struct {
	mu     sync.RWMutex
	blocks map[grid.BlockID]*grid.Block
}

// NewMemBackend returns an empty in-memory store.
func NewMemBackend() *MemBackend {
	return &MemBackend{blocks: map[grid.BlockID]*grid.Block{}}
}

// Put stores a block.
func (m *MemBackend) Put(b *grid.Block) {
	m.mu.Lock()
	m.blocks[b.ID] = b
	m.mu.Unlock()
}

// Fetch returns the stored block or an error when absent.
func (m *MemBackend) Fetch(id grid.BlockID) (*grid.Block, int64, error) {
	m.mu.RLock()
	b, ok := m.blocks[id]
	m.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("storage: %v not in memory store", id)
	}
	return b, b.SizeBytes(), nil
}

// Len reports the number of stored blocks.
func (m *MemBackend) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.blocks)
}

// DirBackend reads and writes blocks as individual files under a root
// directory, named dataset/tNNN/bNNN.vrb.
type DirBackend struct {
	Root string
}

// Path returns the file path of a block ID under the backend root: the
// filepath.Join of the root, the dataset and the ID's zero-padded tNNN/bNNN,
// built without fmt.
func (d *DirBackend) Path(id grid.BlockID) string {
	var buf [128]byte
	p := append(buf[:0], d.Root...)
	if len(p) > 0 {
		p = append(p, filepath.Separator)
	}
	p = id.AppendText(p) // dataset/tNNN/bNNN
	if d.Root == "" && id.Dataset == "" {
		p = p[1:] // Join drops empty parts: no leading separator
	}
	p = append(p, ".vrb"...)
	return filepath.Clean(string(p))
}

// Put encodes and writes a block file, creating directories as needed.
func (d *DirBackend) Put(b *grid.Block) error {
	p := d.Path(b.ID)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, EncodeBlock(b), 0o644)
}

// readBufs recycles the file buffers Fetch reads into. Nothing outlives the
// read: DecodeBlock copies every value out of its input.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// Fetch reads and decodes a block file. The bytes land in a pooled buffer;
// the reported size is the file's length.
func (d *DirBackend) Fetch(id grid.BlockID) (*grid.Block, int64, error) {
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	data, err := readFile(d.Path(id), (*bp)[:0])
	*bp = data
	if err != nil {
		return nil, 0, err
	}
	b, err := decodeBlock(data, id.Dataset)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: %v: %w", id, err)
	}
	return b, int64(len(data)), nil
}

// readFile appends the file's bytes to buf, reading to EOF through the bare
// descriptor: unlike os.ReadFile it makes no *os.File (with its finalizer),
// no fstat and no buffer of its own. Errors are *os.PathError as there.
func readFile(path string, buf []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return buf, &os.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return buf, &os.PathError{Op: "read", Path: path, Err: err}
		case n == 0:
			return buf, nil
		default:
			buf = buf[:len(buf)+n]
		}
	}
}

// FailingBackend wraps a backend and fails every request for IDs matched by
// Match, for fault-injection tests of the adaptive loader.
type FailingBackend struct {
	Inner Backend
	Match func(grid.BlockID) bool
	Err   error
}

// Fetch delegates to Inner unless Match fires.
func (f *FailingBackend) Fetch(id grid.BlockID) (*grid.Block, int64, error) {
	if f.Match != nil && f.Match(id) {
		err := f.Err
		if err == nil {
			err = fmt.Errorf("storage: injected failure for %v", id)
		}
		return nil, 0, err
	}
	return f.Inner.Fetch(id)
}
