package algorithms

import (
	"slices"
	"testing"

	"declpat/internal/distgraph"
	"declpat/internal/pattern"
	"declpat/internal/seq"
)

// TestOracle pins the comparisons every verify step and wrong column uses.
func TestOracle(t *testing.T) {
	// The engine's unreached label equals the reference's.
	if got := CountWrong([]int64{0, 1, pattern.Inf}, []int64{0, 1, seq.Inf}); got != 0 {
		t.Fatalf("CountWrong on equal labels = %d, want 0", got)
	}
	if got := CountWrong([]int64{0, 2, 1}, []int64{0, 1, seq.Inf}); got != 2 {
		t.Fatalf("CountWrong on two differing labels = %d, want 2", got)
	}

	want := []distgraph.Vertex{0, 0, 2, 2}
	if got := WrongPartition([]int64{7, 7, 9, 9}, want); got != 0 {
		t.Fatalf("WrongPartition on a relabelled partition = %d, want 0", got)
	}
	if got := WrongPartition([]int64{7, 7, 7, 7}, want); got == 0 {
		t.Fatal("WrongPartition missed two merged components")
	}
	if got := WrongPartition([]int64{7, 8, 9, 9}, want); got == 0 {
		t.Fatal("WrongPartition missed a split component")
	}

	if got := Canonicalize([]int64{9, 7, 9, 7}); !slices.Equal(got, []int64{0, 1, 0, 1}) {
		t.Fatalf("Canonicalize = %v, want each class named by its smallest member", got)
	}
}
