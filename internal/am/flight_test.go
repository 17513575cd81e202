package am

import (
	"path/filepath"
	"testing"

	"declpat/internal/obs"
)

// TestFlightRecorderCapturesLandmarks pins the always-on black-box feed: a
// universe with a flight recorder and *no* tracer still records epoch
// boundaries and phase spans, leaves no phase open after a clean run, and
// produces a loadable sealed dump.
func TestFlightRecorderCapturesLandmarks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight-0.dpfr")
	fr := obs.NewFlightRecorder(obs.FlightConfig{
		Path: path, Label: "am-test", RankLo: 0, RankHi: 2,
	})
	u := newUniverse(config{Ranks: 2, Flight: fr})
	err := u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {})
		ph := r.Phase(obs.PhaseEmit)
		ph.End()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Persist("test complete"); err != nil {
		t.Fatal(err)
	}
	d, err := obs.LoadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.OpenPhases) != 0 {
		t.Fatalf("clean run left phases open: %+v", d.OpenPhases)
	}
	kinds := map[string]int{}
	for _, ev := range d.Events {
		kinds[ev.Kind]++
	}
	if kinds[TraceEpochBegin.String()] == 0 || kinds[TraceEpochEnd.String()] == 0 {
		t.Fatalf("no epoch landmarks in the black box: %v", kinds)
	}
	if kinds[TracePhase.String()] == 0 {
		t.Fatalf("no phase spans in the black box: %v", kinds)
	}
}

// TestFlightRecorderOptionWiring pins WithFlightRecorder and the getter.
func TestFlightRecorderOptionWiring(t *testing.T) {
	fr := obs.NewFlightRecorder(obs.FlightConfig{RankLo: 0, RankHi: 1})
	u := New(1, WithFlightRecorder(fr))
	if u.FlightRecorder() != fr {
		t.Fatal("WithFlightRecorder did not reach the universe")
	}
	if New(1).FlightRecorder() != nil {
		t.Fatal("flight recorder present without the option")
	}
}

// BenchmarkFlightRecorder measures the landmark hot paths the recorder adds
// to every epoch: the trace-side Record call and the phase enter/exit pair.
// CI gates allocs/op at zero — the black box must never touch the allocator
// on the recording path (only Persist, which runs at epoch commits and
// faults, is allowed to).
func BenchmarkFlightRecorder(b *testing.B) {
	b.Run("record", func(b *testing.B) {
		fr := obs.NewFlightRecorder(obs.FlightConfig{RankLo: 0, RankHi: 1})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fr.Record(0, obs.FlightEvent{TS: int64(i), Kind: "epoch-begin", Arg: int64(i)})
		}
	})
	b.Run("phase-pair", func(b *testing.B) {
		fr := obs.NewFlightRecorder(obs.FlightConfig{RankLo: 0, RankHi: 1})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fr.PhaseEnter(0, obs.PhaseKernel, int64(i))
			fr.PhaseExit(0)
		}
	})
	// The integrated path: a universe whose only observer is the flight
	// recorder, timing a phase scope per iteration. This is what every epoch
	// of a launched worker pays.
	b.Run("phase-scope", func(b *testing.B) {
		fr := obs.NewFlightRecorder(obs.FlightConfig{RankLo: 0, RankHi: 1})
		u := newUniverse(config{Ranks: 1, Flight: fr})
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
