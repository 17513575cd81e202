package algorithms_test

import (
	"fmt"
	"testing"

	"declpat/internal/chaos"
	"declpat/internal/pattern"
)

// The plan-option rows of the oracle matrix (internal/chaos): each cell of
// chaos.TestOracleMatrix, which runs the shipped plan, again with one option
// off wherever that option can engage, held to the same oracle and
// predicates by its checker. Run under -race in CI, like the matrix.

func without(off func(*pattern.PlanOptions)) pattern.PlanOptions {
	o := pattern.DefaultPlanOptions()
	off(&o)
	return o
}

// TestDirectDifferential: Direct off on trusted channels, the one deployment
// where it applies hops in place. Rows are named kernel/RxT.
func TestDirectDifferential(t *testing.T) {
	cells := chaos.Grid(without(func(o *pattern.PlanOptions) { o.Direct = false }), "chan")
	for i, c := range cells {
		cells[i].Name = fmt.Sprintf("%s/%dx%d", c.Kernel.Name, c.Ranks, c.Threads)
	}
	chaos.Rows(t, cells)
}

// TestFilterDifferential: Filter off where every hop is a message — the
// reliable protocol over channels under the zero fault plan, and Unix
// sockets.
func TestFilterDifferential(t *testing.T) {
	chaos.Rows(t, chaos.Grid(without(func(o *pattern.PlanOptions) { o.Filter = false }), "chan-reliable", "unix"))
}

// TestCoalesceDifferential: Coalesce off on every deployment — where the
// applying thread requests a re-run in place (trusted channels) and where
// the owner's handler does (reliable channels, Unix sockets).
func TestCoalesceDifferential(t *testing.T) {
	chaos.Rows(t, chaos.Grid(without(func(o *pattern.PlanOptions) { o.Coalesce = false }), "chan", "chan-reliable", "unix"))
}
