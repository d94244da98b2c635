package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"viracocha/internal/dataset"
	"viracocha/internal/grid"
)

// TestBlockReadOwnsNothing pins what the pooled read buffer of
// DirBackend.Fetch relies on: the decoded block copies every value out of
// the file bytes, so the next read into the same buffer leaves it unchanged.
func TestBlockReadOwnsNothing(t *testing.T) {
	d := &DirBackend{Root: t.TempDir()}
	ids := []grid.BlockID{{Dataset: "engine", Step: 0, Block: 0}, {Dataset: "engine", Step: 1, Block: 5}}
	want := make([]*grid.Block, len(ids))
	for i, id := range ids {
		if err := d.Put(dataset.Engine().Generate(id.Step, id.Block)); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(d.Path(id))
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = DecodeBlock(raw); err != nil {
			t.Fatal(err)
		}
	}
	first, size, err := d.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(d.Path(ids[0])); err != nil || size != fi.Size() {
		t.Fatalf("Fetch reported %d bytes, the file holds %v (%v)", size, fi.Size(), err)
	}
	// Scribble over the pooled buffer, then read the second block into it:
	// the first block must survive both (a second read of a same-shaped
	// file would write an aliased field name back in place).
	bp := readBufs.Get().(*[]byte)
	buf := (*bp)[:cap(*bp)]
	for i := range buf {
		buf[i] = 0xa5
	}
	readBufs.Put(bp)
	if !reflect.DeepEqual(first, want[0]) {
		t.Fatal("a fetched block changed when its read buffer was overwritten")
	}
	second, _, err := d.Fetch(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want[0]) {
		t.Fatal("a fetched block changed when its read buffer was reused")
	}
	if !reflect.DeepEqual(second, want[1]) {
		t.Fatal("a block read into a reused buffer differs from DecodeBlock of its file")
	}
}

// TestDirBackendPathIsJoin pins Path to the filepath.Join/Sprintf form it
// replaced, roots and IDs at the edges included.
func TestDirBackendPathIsJoin(t *testing.T) {
	for _, root := range []string{"", "data", "/srv/data/", "a/../b", "."} {
		for _, id := range []grid.BlockID{
			{Dataset: "propfan", Step: 3, Block: 7},
			{Dataset: "engine", Step: 0, Block: 1234},
			{Dataset: "", Step: 1, Block: 2},
			{Dataset: "x", Step: -1, Block: -12},
			{Dataset: "deep/set", Step: 999, Block: 1000},
		} {
			want := filepath.Join(root, fmt.Sprintf("%s", id.Dataset),
				fmt.Sprintf("t%03d", id.Step), fmt.Sprintf("b%03d.vrb", id.Block))
			if got := (&DirBackend{Root: root}).Path(id); got != want {
				t.Errorf("Path(%q, %+v) = %q, want %q", root, id, got, want)
			}
		}
	}
}
