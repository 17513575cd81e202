package am

import (
	"strings"
	"testing"
	"time"
)

// TestDefaultTransportIsChan pins the zero-config behavior: no WithTransport
// selects the in-process channel backend, trusted mode (no
// synthesized fault plan), original semantics.
func TestDefaultTransportIsChan(t *testing.T) {
	u := newUniverse(config{Ranks: 2})
	if got := u.net.Name(); got != "chan" {
		t.Fatalf("default transport = %q, want chan", got)
	}
	if u.fp != nil {
		t.Fatalf("chan transport must not synthesize a fault plan")
	}
	if u.tickIntNs != 0 {
		t.Fatalf("chan transport tick interval = %d, want 0", u.tickIntNs)
	}
	if got := u.Metrics().Transport; got != "chan" {
		t.Fatalf("Metrics().Transport = %q, want chan", got)
	}
}

// TestWithTransportOption wires a transport through the functional-options
// constructor and checks the universe picked it up.
func TestWithTransportOption(t *testing.T) {
	u := New(2, WithTransport(ChanTransport()))
	if got := u.net.Name(); got != "chan" {
		t.Fatalf("WithTransport: got %q", got)
	}
	u = New(2, WithTransport(SockTransport(SockOptions{Network: "unix"})))
	if got := u.net.Name(); got != "sock-unix" {
		t.Fatalf("WithTransport(sock): got %q", got)
	}
	if u.fp == nil {
		t.Fatalf("sock transport must synthesize a reliable-mode fault plan")
	}
	if u.jitter != sockBackoffJitter {
		t.Fatalf("sock transport backoff jitter = %v, want %v", u.jitter, sockBackoffJitter)
	}
}

// TestSockExplicitPlanJitters: retransmit jitter follows the transport, not
// the plan. A socket universe given its own fault plan (every fleet run with
// injected drops) spreads its timeouts by ±25 % exactly like one running the
// synthesized plan, and the channel transport keeps exact timeouts.
func TestSockExplicitPlanJitters(t *testing.T) {
	sock := New(2, WithTransport(SockTransport(SockOptions{Network: "unix"})), WithFaultPlan(&FaultPlan{Seed: 1}))
	inproc := New(2, WithFaultPlan(&FaultPlan{Seed: 1}))
	distinct := make(map[uint64]bool)
	for seq := uint64(1); seq <= 200; seq++ {
		got := sock.backoffTicks(0, 1, 0, seq, 0)
		if got < 6 || got > 10 {
			t.Fatalf("seq %d: socket backoff %d ticks outside 8 ±25 %%", seq, got)
		}
		distinct[got] = true
		if exact := inproc.backoffTicks(0, 1, 0, seq, 0); exact != 8 {
			t.Fatalf("seq %d: channel backoff %d ticks, want exactly 8", seq, exact)
		}
	}
	if len(distinct) < 2 {
		t.Fatal("socket universe with an explicit fault plan backs off without jitter")
	}
}

// TestTransportReuseRejected: a Transport value binds to one universe only.
func TestTransportReuseRejected(t *testing.T) {
	tr := ChanTransport()
	u1 := newUniverse(config{Ranks: 1, Transport: tr})
	if err := u1.Run(func(r *Rank) {}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	u2 := newUniverse(config{Ranks: 1, Transport: tr})
	err := u2.Run(func(r *Rank) {})
	if err == nil || !strings.Contains(err.Error(), "already bound") {
		t.Fatalf("second bind error = %v, want transport-reused", err)
	}
}

// TestSockRejectsNonWireTypes: the socket backend cannot ship a type without
// a codec, and must say which one at startup rather than hang mid-epoch.
func TestSockRejectsNonWireTypes(t *testing.T) {
	u := newUniverse(config{Ranks: 2, Transport: SockTransport(SockOptions{Network: "unix"})})
	Register(u, "bare", func(r *Rank, m int64) {})
	err := u.Run(func(r *Rank) {})
	if err == nil || !strings.Contains(err.Error(), `"bare"`) {
		t.Fatalf("Run error = %v, want wire-codec complaint naming the type", err)
	}
}

// TestSockOptionsDefaults pins the defaulting rules and the failure
// machinery's constants: a read deadline at or below the heartbeat interval
// would declare every quiet link dead.
func TestSockOptionsDefaults(t *testing.T) {
	o := SockOptions{}.withDefaults()
	if o.Network != "tcp" || o.TickInterval != time.Millisecond ||
		o.heartbeat != 10*time.Millisecond || o.liveness != 100*time.Millisecond ||
		o.reconnectBase != time.Millisecond || o.reconnectMax != 10*time.Millisecond {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if livenessDeadline <= heartbeatInterval {
		t.Fatalf("liveness deadline %v must exceed the heartbeat interval %v", livenessDeadline, heartbeatInterval)
	}
	if b := SockTransport(SockOptions{}).(*sockTransport).budget; b != reconnectBudget {
		t.Fatalf("reconnect budget %d, want %d", b, reconnectBudget)
	}
}
