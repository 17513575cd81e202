package algorithms

import (
	"fmt"

	"declpat/internal/distgraph"
	"declpat/internal/pattern"
	"declpat/internal/seq"
)

// The sequential oracle: every comparison of a distributed result with its
// internal/seq reference goes through the functions below — the CLIs' verify
// steps, the experiment tables' wrong columns, and the fleet and chaos
// harnesses' partition comparisons.

// CountWrong counts vertices whose value differs from the sequential
// reference's. The reference marks an unreached vertex seq.Inf, the engine
// pattern.Inf; the two count as equal.
func CountWrong(got, want []int64) int {
	bad := 0
	for v, w := range want {
		if w == seq.Inf {
			w = pattern.Inf
		}
		if got[v] != w {
			bad++
		}
	}
	return bad
}

// WrongPartition counts vertices whose component label is inconsistent with
// the reference partition: labels may differ, but two vertices share a label
// exactly when they share a reference component.
func WrongPartition(comp []int64, want []distgraph.Vertex) int {
	repr := map[int64]distgraph.Vertex{}
	back := map[distgraph.Vertex]int64{}
	bad := 0
	for v := range comp {
		c, w := comp[v], want[v]
		if r, ok := repr[c]; ok && r != w {
			bad++
			continue
		}
		repr[c] = w
		if r, ok := back[w]; ok && r != c {
			bad++
			continue
		}
		back[w] = c
	}
	return bad
}

// Canonicalize relabels a component vector so each class is named by its
// smallest member vertex. CC's raw root labels depend on which searches won
// the claiming races (they differ run to run even fault-free); the induced
// partition is the algorithm's deterministic output, and in canonical form
// it can be compared bit-for-bit.
func Canonicalize(comp []int64) []int64 {
	smallest := make(map[int64]int64)
	for v, c := range comp {
		if s, ok := smallest[c]; !ok || int64(v) < s {
			smallest[c] = int64(v)
		}
	}
	out := make([]int64, len(comp))
	for v, c := range comp {
		out[v] = smallest[c]
	}
	return out
}

// CheckTree validates a BFS parent tree rooted at src against the sequential
// BFS: ValidateTree with the reference's reachable set.
func CheckTree(n int, edges []distgraph.Edge, src distgraph.Vertex, parent []int64) error {
	depths := seq.BFS(n, edges, src)
	reach := make([]bool, n)
	for v, d := range depths {
		reach[v] = d != seq.Inf
	}
	return ValidateTree(n, edges, src, parent, reach)
}

// ValidateTree checks the Graph500-style tree invariants against the edge
// list: (1) the root is its own parent, (2) every parent edge exists in the
// graph, (3) the parent relation is acyclic (chases terminate at the root),
// and (4) exactly the vertices reachable in reference are in the tree.
// Returns an error describing the first violation.
func ValidateTree(n int, edges []distgraph.Edge, src distgraph.Vertex, parent []int64, reachable []bool) error {
	if parent[src] != int64(src) {
		return fmt.Errorf("root %d has parent %d", src, parent[src])
	}
	edgeSet := make(map[[2]distgraph.Vertex]bool, len(edges))
	for _, e := range edges {
		edgeSet[[2]distgraph.Vertex{e.Src, e.Dst}] = true
	}
	for v := 0; v < n; v++ {
		pv := parent[v]
		if pv == int64(pattern.NilWord) || pv < 0 {
			if reachable[v] {
				return fmt.Errorf("reachable vertex %d has no parent", v)
			}
			continue
		}
		if !reachable[v] {
			return fmt.Errorf("unreachable vertex %d has parent %d", v, pv)
		}
		if distgraph.Vertex(v) != src && !edgeSet[[2]distgraph.Vertex{distgraph.Vertex(pv), distgraph.Vertex(v)}] {
			return fmt.Errorf("tree edge %d->%d not in graph", pv, v)
		}
	}
	// Acyclicity: chase each vertex to the root within n steps.
	for v := 0; v < n; v++ {
		if parent[v] == int64(pattern.NilWord) {
			continue
		}
		cur := distgraph.Vertex(v)
		for steps := 0; cur != src; steps++ {
			if steps > n {
				return fmt.Errorf("parent chain from %d does not reach the root", v)
			}
			cur = distgraph.Vertex(parent[cur])
		}
	}
	return nil
}
