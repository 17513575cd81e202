package am

import (
	"testing"

	"declpat/internal/obs"
)

// BenchmarkPhaseScope measures the phase-timer hot path — open a scope,
// close it — under both gates. CI gates allocs/op at zero for both: with
// timing off the scope must compile down to a nil check (no clock read),
// and with timing on it must stay allocation-free (two clock reads and a
// sharded histogram bump). A nonzero allocs/op here means every epoch of
// every kernel started paying the allocator.
func BenchmarkPhaseScope(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		timing bool
	}{{"off", false}, {"on", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			u := newUniverse(config{Ranks: 1, Timing: cfg.timing})
			b.ReportAllocs()
			b.ResetTimer()
			err := u.Run(func(r *Rank) {
				for i := 0; i < b.N; i++ {
					ph := r.Phase(obs.PhaseKernel)
					ph.End()
				}
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
