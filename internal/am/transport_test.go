package am

import (
	"strings"
	"sync/atomic"
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

// TestMediumDecidesEncoding pins the one encoding rule: the universe, not
// the message type, decides whether an envelope is encoded. No type here
// calls WithWire. On a trusted universe every envelope is a reference and
// no type needs a codec. On every other universe a fixed-layout type gets
// the fixed codec at registration and every sequenced envelope is its bytes:
// WireBytes counts exactly the envelopes that cross a link, a rank's mail
// to itself stays a reference unless the plan injects link faults, and Run
// refuses, by name, a type no codec can carry.
func TestMediumDecidesEncoding(t *testing.T) {
	const per = 40
	for _, row := range []struct {
		name     string
		cfg      func() config
		selfWire bool // self-mail is sequenced, so encoded
	}{
		{"chan-trusted", func() config { return config{} }, false},
		{"chan-zero-plan", func() config { return config{FaultPlan: &FaultPlan{}} }, false},
		{"chan-link-faults", func() config { return config{FaultPlan: &FaultPlan{Seed: 3, Drop: 0.05}} }, true},
		{"unix", func() config {
			requireLoopback(t)
			return config{Transport: SockTransport(fastSockOptions("unix"))}
		}, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			trusted := row.name == "chan-trusted"
			cfg := row.cfg()
			cfg.Ranks, cfg.ThreadsPerRank, cfg.CoalesceSize = 2, 1, 4
			u := newUniverse(cfg)
			var sum atomic.Int64
			mt := Register(u, "val", func(r *Rank, m chatterPayload) { sum.Add(m.ID) })
			want := "fixed"
			if trusted {
				want = ""
			}
			if got := mt.CodecName(); got != want {
				t.Fatalf("codec %q, want %q", got, want)
			}
			var selfWire int64
			if err := u.Run(func(r *Rank) {
				// Epoch 1 mails only to self, epoch 2 only across.
				for _, dest := range []int{r.ID(), 1 - r.ID()} {
					r.Epoch(func(ep *Epoch) {
						for i := int64(1); i <= per; i++ {
							mt.SendTo(r, dest, chatterPayload{ID: i})
						}
					})
					if r.ID() == 0 && dest == 0 {
						selfWire = u.Stats.WireBytes()
					}
				}
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if want := int64(4 * per * (per + 1) / 2); sum.Load() != want {
				t.Fatalf("handled sum %d, want %d", sum.Load(), want)
			}
			if (selfWire > 0) != row.selfWire {
				t.Errorf("self-mail wire bytes %d; want them > 0: %v", selfWire, row.selfWire)
			}
			if crossWire := u.Stats.WireBytes() - selfWire; (crossWire > 0) == trusted {
				t.Errorf("cross-rank wire bytes %d; want them > 0: %v", crossWire, !trusted)
			}

			// A payload holding a string has no fixed layout: the trusted
			// universe ships it by reference, any other refuses it by name.
			type note struct{ Tag string }
			cfg = row.cfg()
			cfg.Ranks = 2
			u = newUniverse(cfg)
			var tags atomic.Int64
			notes := Register(u, "notes", func(r *Rank, m note) { tags.Add(int64(len(m.Tag))) })
			err := u.Run(func(r *Rank) {
				r.Epoch(func(ep *Epoch) { notes.SendTo(r, 1-r.ID(), note{Tag: "abc"}) })
			})
			if trusted {
				if err != nil || tags.Load() != 6 {
					t.Fatalf("string payload on the trusted universe: Run %v, %d tag bytes handled, want nil and 6", err, tags.Load())
				}
			} else if err == nil || !strings.Contains(err.Error(), `"notes"`) {
				t.Fatalf("string payload: Run error = %v, want a wire-codec refusal naming the type", err)
			}
		})
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
