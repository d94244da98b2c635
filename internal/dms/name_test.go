package dms

import (
	"testing"

	"viracocha/internal/grid"
)

// TestItemNameIdentity pins the typed item name: String renders the log
// text the string-built names had, and two names are equal exactly when
// block, kind, field and level are.
func TestItemNameIdentity(t *testing.T) {
	id := grid.BlockID{Dataset: "propfan", Step: 3, Block: 7}
	for _, c := range []struct {
		name ItemName
		want string
	}{
		{BlockItem(id), "propfan/t003/b007:block:vrb"},
		{CoarseBlockItem(id, 2), "propfan/t003/b007:block:vrb?level=2"},
		{CoarseBlockItem(id, 0), "propfan/t003/b007:block:vrb"},
		{BSPItem(id, "pressure"), "propfan/t003/b007:bsp:pressure:tree"},
		{BSPItem(grid.BlockID{Dataset: "engine", Step: 12, Block: 1234}, "lambda2"), "engine/t012/b1234:bsp:lambda2:tree"},
	} {
		if got := c.name.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}

	other := grid.BlockID{Dataset: "propfan", Step: 3, Block: 8}
	names := []ItemName{
		BlockItem(id),
		BlockItem(other),
		BlockItem(grid.BlockID{Dataset: "engine", Step: 3, Block: 7}),
		BlockItem(grid.BlockID{Dataset: "propfan", Step: 4, Block: 7}),
		CoarseBlockItem(id, 1),
		CoarseBlockItem(id, 2),
		BSPItem(id, "pressure"),
		BSPItem(id, "lambda2"),
		BSPItem(other, "pressure"),
		{Block: id, kind: kindBSP, Field: "pressure", Level: 1},
	}
	for i, a := range names {
		for j, b := range names {
			equal := a.Block == b.Block && a.kind == b.kind && a.Field == b.Field && a.Level == b.Level
			if (a == b) != equal || equal != (i == j) {
				t.Errorf("%v == %v is %v; block, kind, field and level equal: %v", a, b, a == b, equal)
			}
		}
	}
	// Built twice, a name is the same key: it resolves to one ID.
	s := NewNameServer()
	if s.Resolve(BSPItem(id, "pressure")) != s.Resolve(BSPItem(id, "pressure")) {
		t.Fatal("an equal name resolved to a second ID")
	}
}
