package experiments

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"declpat/internal/pattern"
)

// tinyScale keeps the whole suite fast in tests.
func tinyScale() Scale { return Scale{RMATScale: 7, EdgeFactor: 6, Seed: 9} }

func TestAllExperimentsProduceTables(t *testing.T) {
	for _, ex := range All() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			tables := ex.Run(tinyScale())
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if tb.Rows() == 0 {
					t.Fatalf("table %q has no rows", tb.Title)
				}
				out := tb.String()
				if !strings.Contains(out, "--") {
					t.Fatalf("table %q did not render:\n%s", tb.Title, out)
				}
			}
		})
	}
}

// TestE1CorrectEverywhere: every SSSP strategy row must report zero wrong
// vertices.
func TestE1CorrectEverywhere(t *testing.T) {
	tables := E1Strategies(tinyScale())
	out := tables[0].String()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fixed_point") || strings.HasPrefix(line, "delta") {
			fields := strings.Fields(line)
			if fields[len(fields)-1] != "0" {
				t.Fatalf("strategy row reports wrong vertices: %s", line)
			}
		}
	}
}

// TestE4FigureCounts: the planner table must show Fig. 5 exactly — the
// naive DFS walk backtracks to v once (8 messages), the direct plan jumps
// between siblings (7) — and each mode's route.
func TestE4FigureCounts(t *testing.T) {
	b, err := json.Marshal(E4Planner(tinyScale())[0])
	if err != nil {
		t.Fatal(err)
	}
	var got struct{ Rows [][]string }
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"naive DFS (backtracking)", "8", "b->v->c1->c2->c3->c4->c5->c6"},
		{"direct (optimized)", "7", "b->c1->c2->c3->c4->c5->c6"},
	}
	if !slices.EqualFunc(got.Rows, want, slices.Equal) {
		t.Fatalf("E4 rows %q, want %q", got.Rows, want)
	}
}

// TestE2MergeSavesMessages: merged three-locality plan must use fewer
// messages than unmerged.
func TestE2MergeSavesMessages(t *testing.T) {
	merged := compilePlans(threeLocPattern(), pattern.PlanOptions{Merge: true, Fold: true})
	unmerged := compilePlans(threeLocPattern(), pattern.PlanOptions{Merge: false, Fold: true})
	if m, u := merged[0].Conds[0].Messages, unmerged[0].Conds[0].Messages; m >= u {
		t.Fatalf("merged=%d unmerged=%d", m, u)
	}
}
