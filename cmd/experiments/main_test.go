package main

import (
	"slices"
	"testing"

	"declpat/internal/experiments"
)

// TestPickNamesUnknownIDs: -only selects in suite order, case- and
// space-insensitively, and reports every id that names no experiment (main
// exits 2 on any), so a mistyped id cannot pass as an empty run.
func TestPickNamesUnknownIDs(t *testing.T) {
	all := experiments.All()
	ids := func(exs []experiments.Experiment) []string {
		var out []string
		for _, ex := range exs {
			out = append(out, ex.ID)
		}
		return out
	}
	if sel, unk := pick(all, ""); len(sel) != len(all) || unk != nil {
		t.Fatalf("empty -only: %d of %d selected, unknown %v", len(sel), len(all), unk)
	}
	if sel, unk := pick(all, " e8,E5 "); !slices.Equal(ids(sel), []string{"E5", "E8"}) || unk != nil {
		t.Fatalf("-only ' e8,E5 ': selected %v, unknown %v", ids(sel), unk)
	}
	if sel, unk := pick(all, "E14,E5,E99"); !slices.Equal(ids(sel), []string{"E5"}) || !slices.Equal(unk, []string{"E14", "E99"}) {
		t.Fatalf("-only E14,E5,E99: selected %v, unknown %v, want [E5] and [E14 E99]", ids(sel), unk)
	}
}
