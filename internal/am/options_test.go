package am

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"declpat/internal/obs"
)

// TestNewWithOptions is the constructor's contract: New(n) yields the
// documented defaults, and each With* option sets the field it names and no
// other.
func TestNewWithOptions(t *testing.T) {
	u := New(3)
	if u.Ranks() != 3 || u.net.Name() != "chan" || u.fp != nil || u.jitter != 0 || u.tracer != nil ||
		u.lineage || u.mp != nil || u.flight != nil || !u.park || !u.coresident {
		t.Fatalf("New(3) is not the trusted in-process default: ranks=%d transport=%s fp=%v jitter=%v tracer=%v lineage=%v",
			u.Ranks(), u.net.Name(), u.fp, u.jitter, u.tracer != nil, u.lineage)
	}
	want := config{Ranks: 3, CoalesceSize: 64, MaxRecoveries: 8, Transport: u.cfg.Transport}
	if u.cfg != want {
		t.Fatalf("New(3) config = %+v, want %+v", u.cfg, want)
	}
	if New(0).Ranks() != 1 {
		t.Fatal("New(0) must clamp to one rank")
	}

	fp := &FaultPlan{Drop: 0.05, Seed: 7}
	tr := ChanTransport()
	flight := obs.NewFlightRecorder(obs.FlightConfig{})
	cases := []struct {
		name string
		opt  Option
		want config
	}{
		{"WithThreads", WithThreads(2), config{ThreadsPerRank: 2}},
		{"WithCoalesce", WithCoalesce(16), config{CoalesceSize: 16}},
		{"WithDetector", WithDetector(DetectorFourCounter), config{Detector: DetectorFourCounter}},
		{"WithFaultPlan", WithFaultPlan(fp), config{FaultPlan: fp}},
		{"WithRecovery", WithRecovery(), config{Recovery: true}},
		{"WithTraceCapacity", WithTraceCapacity(1024), config{TraceCapacity: 1024}},
		{"WithLineage", WithLineage(LineageOff), config{Lineage: LineageOff}},
		{"WithTiming", WithTiming(), config{Timing: true}},
		{"WithTransport", WithTransport(tr), config{Transport: tr}},
		{"WithControlPlane", WithControlPlane(MPConfig{Lo: 1, Hi: 2, RunID: 9}), config{}},
		{"WithFlightRecorder", WithFlightRecorder(flight), config{Flight: flight}},
	}
	for _, c := range cases {
		var got config
		c.opt(&got)
		if mp := got.MP; mp != nil {
			// MPConfig holds a slice, so it is checked field by field.
			if mp.Lo != 1 || mp.Hi != 2 || mp.RunID != 9 {
				t.Fatalf("%s: MP = %+v", c.name, *mp)
			}
			got.MP = nil
		} else if c.name == "WithControlPlane" {
			t.Fatalf("%s left MP nil", c.name)
		}
		if got != c.want {
			t.Fatalf("%s set %+v, want %+v", c.name, got, c.want)
		}
	}

	// The fields only tests set survive resolution.
	c := newUniverse(config{Ranks: 2, MaxRecoveries: 3, Watchdog: 30 * time.Second}).cfg
	if c.MaxRecoveries != 3 || c.Watchdog != 30*time.Second {
		t.Fatalf("newUniverse dropped a test-set field: MaxRecoveries=%d Watchdog=%v", c.MaxRecoveries, c.Watchdog)
	}
	// A control plane forces the four-counter detector without WithDetector
	// (the atomic one counts process-local state), and so never parks,
	// although an atomic socket universe would.
	cp := New(2, WithControlPlane(MPConfig{Plane: stubPlane{}, Lo: 0, Hi: 2}),
		WithTransport(SockTransport(SockOptions{Network: "unix"})))
	if cp.cfg.Detector != DetectorFourCounter || !cp.fourCounter || cp.park {
		t.Fatalf("control-plane universe: detector=%s fourCounter=%v park=%v, want four-counter and no parking",
			cp.cfg.Detector, cp.fourCounter, cp.park)
	}
}

// TestNewMatchesNewUniverse runs the same tiny workload through the option
// constructor and the config struct it resolves to, and checks the option
// form behaves like the struct form.
func TestNewMatchesNewUniverse(t *testing.T) {
	run := func(u *Universe) int64 {
		var n atomic.Int64
		mt := Register(u, "ping", func(r *Rank, m int64) { n.Add(m) })
		if err := u.Run(func(r *Rank) {
			r.Epoch(func(ep *Epoch) {
				for i := int64(1); i <= 10; i++ {
					mt.SendTo(r, (r.ID()+1)%u.Ranks(), i)
				}
			})
		}); err != nil {
			t.Fatal(err)
		}
		return n.Load()
	}
	a := run(New(2, WithThreads(1), WithCoalesce(4)))
	b := run(newUniverse(config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4}))
	if a != b || a != 2*55 {
		t.Fatalf("New=%d newUniverse=%d, want both %d", a, b, 2*55)
	}
}

// TestControlPlaneNeedsSocketTransport: a fleet worker's data plane must be
// able to lose frames (and so run the reliable layer) — the in-process
// transport cannot carry a multi-process universe, whatever ranks it hosts.
func TestControlPlaneNeedsSocketTransport(t *testing.T) {
	defer func() {
		p := recover()
		if msg, ok := p.(string); !ok || !strings.Contains(msg, "socket transport") {
			t.Fatalf("WithControlPlane on the channel transport: panic %v, want a socket-transport complaint", p)
		}
	}()
	New(2, WithControlPlane(MPConfig{Plane: stubPlane{}, Lo: 0, Hi: 2}))
}

// stubPlane satisfies ControlPlane for construction-time checks; nothing in
// them calls it.
type stubPlane struct{ ControlPlane }
