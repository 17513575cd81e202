package am

import "testing"

// TestBackoffTicksExponentialAndCapped pins the retransmit backoff schedule:
// without jitter (the in-process transport), attempt n waits
// retransmitBase << n ticks, capped at retransmitBase << backoffShiftCap and
// constant beyond.
func TestBackoffTicksExponentialAndCapped(t *testing.T) {
	u := New(2, WithFaultPlan(&FaultPlan{retransmitBase: 8}))
	for n := 0; n <= backoffShiftCap+4; n++ {
		want := uint64(8) << min(n, backoffShiftCap)
		if got := u.backoffTicks(0, 1, 0, 7, n); got != want {
			t.Fatalf("backoffTicks(attempt=%d) = %d, want %d", n, got, want)
		}
	}
}

// TestBackoffTicksJitterBounds: with jitter j, every timeout lies in
// [(1-j)·nominal, (1+j)·nominal), never below one tick, is a pure function
// of its coordinates (deterministic across calls), and actually varies
// across sequence numbers (the whole point of desynchronizing retransmit
// storms after a reconnect). The socket transport's own j is checked here
// beside a wider one and full jitter on a one-tick base.
func TestBackoffTicksJitterBounds(t *testing.T) {
	u := New(2, WithTransport(SockTransport(SockOptions{Network: "unix"})),
		WithFaultPlan(&FaultPlan{Seed: 99, retransmitBase: 16}))
	for _, j := range []float64{sockBackoffJitter, 0.3} {
		u.jitter = j
		checkJitterBounds(t, u, j)
	}
	// A tiny base must still jitter to at least one tick, never zero.
	tiny := New(2, WithFaultPlan(&FaultPlan{retransmitBase: 1}))
	tiny.jitter = 1
	for seq := uint64(1); seq <= 100; seq++ {
		if got := tiny.backoffTicks(0, 1, 0, seq, 0); got < 1 {
			t.Fatalf("base-1 full-jitter backoff hit zero at seq %d", seq)
		}
	}
}

func checkJitterBounds(t *testing.T, u *Universe, j float64) {
	t.Helper()
	distinct := make(map[uint64]bool)
	for seq := uint64(1); seq <= 200; seq++ {
		for n := 0; n <= backoffShiftCap+1; n++ {
			nominal := float64(uint64(16) << min(n, backoffShiftCap))
			got := u.backoffTicks(0, 1, 0, seq, n)
			if got < 1 {
				t.Fatalf("backoff of 0 ticks at seq %d attempt %d", seq, n)
			}
			if f := float64(got); f < (1-j)*nominal-1 || f >= (1+j)*nominal+1 {
				t.Fatalf("backoffTicks(seq=%d, attempt=%d) = %d outside [%v, %v)",
					seq, n, got, (1-j)*nominal, (1+j)*nominal)
			}
			if again := u.backoffTicks(0, 1, 0, seq, n); again != got {
				t.Fatalf("backoffTicks not deterministic: %d then %d", got, again)
			}
			if n == 0 {
				distinct[got] = true
			}
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("jitter %v: backoff never varied across %d sequence numbers", j, 200)
	}
}

// TestBackoffResetsAfterAck: backoff attempts are per-envelope, so once an
// envelope is acknowledged (and leaves the outstanding table) the next
// envelope on the same link starts over at the base timeout — deep backoff
// from one bad stretch never taxes later traffic.
func TestBackoffResetsAfterAck(t *testing.T) {
	u := newUniverse(config{Ranks: 2, FaultPlan: &FaultPlan{retransmitBase: 4}})
	Register(u, "x", func(r *Rank, m int64) {})
	rk := u.ranks[0]
	rk.initReliability(1)
	r := rk.rankState

	firstDue := func(seq uint64) uint64 {
		l := &r.send[1][0]
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.out[seq].due
	}
	seq, _ := (&Rank{rankState: r}).nextSeq(1, 0, []int64{1}, nil)
	base := r.linkTick.Load() + 4
	if got := firstDue(seq); got != base {
		t.Fatalf("fresh envelope due at tick %d, want %d", got, base)
	}
	// Simulate a rough delivery: several retransmissions drove the envelope
	// deep into backoff before the ack finally landed.
	l := &r.send[1][0]
	l.mu.Lock()
	l.out[seq].attempts = 5
	l.out[seq].due = r.linkTick.Load() + u.backoffTicks(0, 1, 0, seq, 5)
	l.mu.Unlock()
	(&Rank{rankState: r}).handleAck(envelope{src: 1, seq: seq, data: ackBody{typ: 0}})
	l.mu.Lock()
	left := len(l.out)
	l.mu.Unlock()
	if left != 0 {
		t.Fatalf("outstanding table holds %d envelopes after ack, want 0", left)
	}
	if pend := rk.relPendingNow(); pend != 0 {
		t.Fatalf("relPending = %d after ack, want 0", pend)
	}
	seq2, _ := (&Rank{rankState: r}).nextSeq(1, 0, []int64{2}, nil)
	if got := firstDue(seq2); got != base {
		t.Fatalf("post-ack envelope due at tick %d, want base %d (backoff must reset)", got, base)
	}
}
