package am

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"declpat/internal/frame"
)

// requireLoopback skips socket tests in environments that forbid binding
// loopback sockets (restricted sandboxes).
func requireLoopback(t *testing.T) {
	t.Helper()
	ln, err := netListenLoopback()
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	ln.Close()
}

func netListenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// fastSockOptions returns socket options tuned for tests: millisecond-scale
// heartbeats and reconnect backoff so failure machinery exercises quickly.
// Real-time deadlines stretch by raceTimingScale under the race detector.
func fastSockOptions(network string) SockOptions {
	return SockOptions{
		Network:       network,
		TickInterval:  200 * time.Microsecond,
		heartbeat:     5 * time.Millisecond * raceTimingScale,
		liveness:      25 * time.Millisecond * raceTimingScale,
		reconnectBase: 2 * time.Millisecond,
		reconnectMax:  20 * time.Millisecond,
	}
}

// runSockChatter runs the two-epoch forwarding workload from fault_test.go
// over the given config (the chatter type registered with the fixed wire
// codec, as the socket backend requires) and returns per-message handle
// counts plus the finished universe.
func runSockChatter(t *testing.T, cfg config, perRank int) ([]int64, *Universe) {
	t.Helper()
	u := newUniverse(cfg)
	n := cfg.Ranks
	total := 2 * n * perRank
	counts := make([]int64, total)
	var mt *MsgType[chatterPayload]
	mt = Register(u, "chatter", func(r *Rank, m chatterPayload) {
		atomic.AddInt64(&counts[m.ID], 1)
		if m.Hop == 0 {
			mt.SendTo(r, (r.ID()+1)%r.N(), chatterPayload{ID: m.ID + int64(n*perRank), Hop: 1})
		}
	}).WithWire()
	err := u.Run(func(r *Rank) {
		for epoch := 0; epoch < 2; epoch++ {
			r.Epoch(func(ep *Epoch) {
				base := epoch * n * perRank / 2
				for i := 0; i < perRank/2; i++ {
					id := int64(base + r.ID()*perRank/2 + i)
					mt.SendTo(r, (r.ID()+1+i)%r.N(), chatterPayload{ID: id, Hop: 0})
				}
			})
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return counts, u
}

// TestSockExactlyOnce proves the headline semantics claim of the transport
// seam: the same workload over TCP loopback and Unix-domain sockets, on both
// detectors, handles every message exactly once — identical to the
// in-process backend.
func TestSockExactlyOnce(t *testing.T) {
	requireLoopback(t)
	for _, network := range []string{"tcp", "unix"} {
		for _, det := range []DetectorKind{DetectorAtomic, DetectorFourCounter} {
			t.Run(fmt.Sprintf("%s/%s", network, det), func(t *testing.T) {
				cfg := config{Ranks: 3, ThreadsPerRank: 2, CoalesceSize: 4, Detector: det,
					Transport: SockTransport(fastSockOptions(network))}
				counts, u := runSockChatter(t, cfg, 48)
				checkExactlyOnce(t, counts, 0)
				m := u.Metrics()
				want := "sock-tcp"
				if network == "unix" {
					want = "sock-unix"
				}
				if m.Transport != want {
					t.Fatalf("Metrics().Transport = %q, want %q", m.Transport, want)
				}
				if m.Counters.WireBytes == 0 {
					t.Fatalf("expected wire bytes on a socket transport, got 0")
				}
			})
		}
	}
}

// TestSockHandshakeRejects dials rank 1's listener of a running socket
// universe with hand-built hellos, each followed by a data frame that rank 1
// would deliver if the connection were admitted. Every bad hello must be
// answered statusBad and closed with nothing delivered; the good one is
// answered statusOK and its frame reaches rank 1's inbox.
func TestSockHandshakeRejects(t *testing.T) {
	requireLoopback(t)
	tr := SockTransport(fastSockOptions("tcp")).(*sockTransport)
	// No handler threads and no epoch: whatever a connection delivers stays
	// in the inbox for the test to count.
	u := newUniverse(config{Ranks: 2, ThreadsPerRank: 0, Transport: tr})
	mt := Register(u, "val", func(r *Rank, m chatterPayload) {}).WithWire()

	hello := func(magic string, version uint16, src, dest uint32, id uint64) []byte {
		f := binary.LittleEndian.AppendUint16(append(frame.Begin(nil, frame.KindHello), magic...), version)
		f = binary.LittleEndian.AppendUint32(f, src)
		f = binary.LittleEndian.AppendUint32(f, dest)
		return frame.Seal(binary.LittleEndian.AppendUint64(f, id))
	}
	payload, _ := mt.codec.Append(nil, []chatterPayload{{ID: 7}})
	data := frame.Begin(nil, frameData)
	data = binary.LittleEndian.AppendUint32(data, uint32(mt.id))
	data = binary.LittleEndian.AppendUint64(data, 1) // seq (a link's first)
	data = append(data, make([]byte, 8+8)...)        // gen, qid
	data = binary.LittleEndian.AppendUint64(data, frame.Checksum(payload))
	data = binary.LittleEndian.AppendUint32(data, 0) // no lineage
	data = binary.LittleEndian.AppendUint32(data, uint32(len(payload)))
	data = frame.Seal(append(data, payload...))

	// dial sends in (then half-closes when truncated) and returns everything
	// the acceptor answers before closing.
	dial := func(in []byte, truncated bool) []byte {
		conn, err := net.Dial("tcp", tr.addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.Write(in)
		if truncated {
			conn.(*net.TCPConn).CloseWrite()
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, _ := io.ReadAll(conn)
		return got
	}
	good := hello(sockMagic, frame.Version, 0, 1, tr.id)
	err := u.Run(func(r *Rank) {
		if r.ID() == 0 {
			for _, tc := range []struct {
				name string
				in   []byte
			}{
				{"wrong magic", hello("DPCP", frame.Version, 0, 1, tr.id)},
				{"wrong version", hello(sockMagic, frame.Version+1, 0, 1, tr.id)},
				{"wrong run id", hello(sockMagic, frame.Version, 0, 1, tr.id+1)},
				{"wrong dest rank", hello(sockMagic, frame.Version, 0, 0, tr.id)},
				{"data before hello", data},
			} {
				if got := dial(append(append([]byte(nil), tc.in...), data...), false); !bytes.Equal(got, []byte{statusBad}) {
					t.Errorf("%s: acceptor answered %v, want [statusBad] then close", tc.name, got)
				}
			}
			if got := dial(good[:len(good)/2], true); !bytes.Equal(got, []byte{statusBad}) {
				t.Errorf("truncated hello: acceptor answered %v, want [statusBad] then close", got)
			}
			if n := u.ranks[0].inbox.Len() + u.ranks[1].inbox.Len(); n != 0 {
				t.Errorf("%d envelopes delivered through refused connections", n)
			}

			conn, err := net.Dial("tcp", tr.addrs[1])
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.Write(append(append([]byte(nil), good...), data...))
			var status [1]byte
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.ReadFull(conn, status[:]); err != nil || status[0] != statusOK {
				t.Fatalf("good hello: status %v, %v; want statusOK", status, err)
			}
			for deadline := time.Now().Add(5 * time.Second); u.ranks[1].inbox.Len() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the admitted connection's data frame never reached rank 1")
				}
				time.Sleep(time.Millisecond)
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSockDisconnectReconnect injects connection kills (a one-shot
// disconnect plus a flapping link) and asserts the transport reconnected,
// requeued the frames lost in the dead connections, and still delivered
// everything exactly once.
func TestSockDisconnectReconnect(t *testing.T) {
	requireLoopback(t)
	opt := fastSockOptions("tcp")
	opt.Faults = &SockFaultPlan{
		Disconnects: []SockDisconnect{{Src: 0, Dest: 1, AfterFrames: 3}},
		Flaps:       []SockFlap{{Src: 1, Dest: 2, Period: 5, Count: 3}},
	}
	cfg := config{Ranks: 3, ThreadsPerRank: 2, CoalesceSize: 4,
		Transport: SockTransport(opt)}
	counts, u := runSockChatter(t, cfg, 64)
	checkExactlyOnce(t, counts, 0)
	s := u.Stats.Snapshot()
	if s.Reconnects < 1 {
		t.Fatalf("expected reconnects after injected disconnects, got %+v", s)
	}
	if s.FramesDropped < 1 {
		t.Fatalf("killed frames must be counted dropped, got %+v", s)
	}
}

// TestSockInjectedCorruptionStillDetected: a payload that arrives inside a
// CRC-verified frame is not checksummed a second time — except under a fault
// plan that corrupts payloads, which flips its byte after the payload
// checksum is sealed and before the frame CRC is computed, so the frame
// verifies and only the payload checksum can tell. The corrupted envelopes
// must still be caught and retransmitted, never decoded.
func TestSockInjectedCorruptionStillDetected(t *testing.T) {
	requireLoopback(t)
	const seed = 9
	cfg := config{Ranks: 3, ThreadsPerRank: 2, CoalesceSize: 4,
		FaultPlan: &FaultPlan{Seed: seed, Corrupt: 0.3},
		Transport: SockTransport(fastSockOptions("unix"))}
	counts, u := runSockChatter(t, cfg, 64)
	checkExactlyOnce(t, counts, seed)
	s := u.Stats.Snapshot()
	if s.CorruptionsDetected == 0 || s.DecodeErrors != 0 {
		t.Fatalf("corruptions detected = %d, decode errors = %d; want every injected corruption caught by the checksum",
			s.CorruptionsDetected, s.DecodeErrors)
	}
}

// sockRingSum runs a one-epoch ring workload over a socket transport with a
// checkpointed per-rank accumulator (handler results survive epoch rollback
// and replay exactly once). gate, when non-nil, is waited on by rank 0's
// epoch body, holding the epoch open until the test has injected its
// failure. Returns the universe and the accumulated total; the fault-free
// expectation is ringWant(ranks, per).
func sockRingSum(t *testing.T, cfg config, per int, gate <-chan struct{}) (*Universe, int64) {
	t.Helper()
	u := newUniverse(cfg)
	ck := newSliceCkpt(u.Ranks())
	u.RegisterCheckpointer(ck)
	mt := Register(u, "val", func(r *Rank, m chatterPayload) {
		ck.add(r.ID(), m.ID)
	}).WithWire()
	err := u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < per; i++ {
				mt.SendTo(r, (r.ID()+1)%r.N(), chatterPayload{ID: int64(i + 1)})
			}
			if gate != nil && r.ID() == 0 {
				<-gate
			}
		})
	})
	if err != nil {
		for i, f := range u.FaultLog() {
			t.Logf("fault[%d]: kind=%s rank=%d epoch=%d detail=%s", i, f.Kind, f.Rank, f.Epoch, f.Detail)
		}
		t.Logf("counters: %+v", u.Stats.Snapshot())
		t.Fatalf("Run: %v", err)
	}
	return u, ck.sum()
}

// TestSockPartitionEscalatesToRecovery black-holes one direction with no
// closing frame: heartbeats vanish too, so the receiver's liveness deadline
// trips, and the sender's retransmits die until the retransmit ceiling
// raises a rank fault. With Recovery on, the epoch must roll back, the
// recovery must heal the partition window, and the replay must produce the
// exact fault-free result — a severed link costs an epoch attempt, never
// correctness and never a hang.
func TestSockPartitionEscalatesToRecovery(t *testing.T) {
	requireLoopback(t)
	opt := fastSockOptions("tcp")
	opt.heartbeat = 3 * time.Millisecond * raceTimingScale
	opt.liveness = 15 * time.Millisecond * raceTimingScale
	opt.Faults = &SockFaultPlan{
		Partitions: []SockPartition{{Src: 0, Dest: 1, FromFrame: 1, ToFrame: 0}}, // open-ended
	}
	// The retransmit ceiling (sum of the backoff schedule) must outlast a
	// worst-case reconnect cycle — liveness expiry on the receiver, a write
	// error surfacing on the sender, capped backoff, dial, handshake,
	// requeue — or the post-heal replay re-faults and burns recoveries.
	cfg := config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4,
		Recovery: true, MaxRecoveries: 20,
		FaultPlan: &FaultPlan{retransmitBase: 2, maxAttempts: 12},
		Transport: SockTransport(opt)}
	u, got := sockRingSum(t, cfg, 64, nil)
	if want := ringWant(2, 64); got != want {
		t.Fatalf("ring sum = %d after partition recovery, want %d", got, want)
	}
	s := u.Stats.Snapshot()
	if s.Recoveries < 1 || s.EpochAborts < 1 {
		t.Fatalf("open-ended partition must force an epoch rollback, got %+v", s)
	}
	if s.HeartbeatMisses < 1 {
		t.Fatalf("a black-holed direction must trip the liveness deadline, got %+v", s)
	}
	if s.FramesDropped < 1 {
		t.Fatalf("black-holed frames must be counted dropped, got %+v", s)
	}
}

// TestSockHeartbeatsKeepQuietLinksAlive holds an epoch open with no traffic
// for several liveness windows: heartbeats alone must keep every connection
// alive (no misses, no reconnects).
func TestSockHeartbeatsKeepQuietLinksAlive(t *testing.T) {
	requireLoopback(t)
	opt := fastSockOptions("tcp")
	cfg := config{Ranks: 2, ThreadsPerRank: 1, Transport: SockTransport(opt)}
	u := newUniverse(cfg)
	mt := Register(u, "ping", func(r *Rank, m chatterPayload) {}).WithWire()
	err := u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			mt.SendTo(r, (r.ID()+1)%r.N(), chatterPayload{ID: int64(r.ID())})
			time.Sleep(4 * opt.liveness)
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := u.Stats.Snapshot()
	if s.HeartbeatMisses != 0 || s.Reconnects != 0 {
		t.Fatalf("quiet links must stay alive on heartbeats alone, got %+v", s)
	}
}

// TestSockDialFailureEscalatesAndRecovers is the reconnect-budget acceptance
// test: mid-epoch every live connection is cut and dials start failing (what
// a dead host looks like to its peers). Rank 0 then sends a burst that can
// only cross the outage, so reconnect attempts fail until the budget is
// exhausted, which must escalate to a FaultTransport rank fault and
// checkpoint/restart — not a hung epoch. Dials then succeed again and a
// replay attempt reconnects and completes exactly once.
func TestSockDialFailureEscalatesAndRecovers(t *testing.T) {
	requireLoopback(t)
	tr := SockTransport(fastSockOptions("tcp")).(*sockTransport)
	tr.budget = 3
	cfg := config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4,
		Recovery: true, MaxRecoveries: 1000,
		FaultPlan: &FaultPlan{retransmitBase: 2, maxAttempts: 12},
		Transport: tr}

	// The outage: while down, dials fail; going down also closes every
	// connection dialed so far (the reader side sees the close too).
	var (
		mu    sync.Mutex
		down  bool
		conns []net.Conn
	)
	tr.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		if down {
			return nil, errors.New("injected outage")
		}
		c, err := net.DialTimeout(network, addr, timeout)
		if err == nil {
			conns = append(conns, c)
		}
		return c, err
	}
	setDown := func(d bool) {
		mu.Lock()
		defer mu.Unlock()
		down = d
		for _, c := range conns {
			c.Close()
		}
		conns = nil
	}

	// Event-driven failure injection: rank 0 signals once its epoch is live
	// (so the outage always lands after the eager dials), the links die, and
	// only then does rank 0 send its second burst — those frames are
	// guaranteed to face a dead link no matter how the scheduler raced the
	// first batch's delivery.
	const per, burst = 64, 16
	var startedOnce sync.Once
	started := make(chan struct{})
	gate := make(chan struct{})
	go func() {
		<-started
		setDown(true)
		close(gate)
		time.Sleep(60 * time.Millisecond * raceTimingScale)
		setDown(false)
	}()

	u := newUniverse(cfg)
	ck := newSliceCkpt(u.Ranks())
	u.RegisterCheckpointer(ck)
	mt := Register(u, "val", func(r *Rank, m chatterPayload) {
		ck.add(r.ID(), m.ID)
	}).WithWire()
	err := u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 1; i <= per; i++ {
				mt.SendTo(r, (r.ID()+1)%r.N(), chatterPayload{ID: int64(i)})
			}
			if r.ID() == 0 {
				startedOnce.Do(func() { close(started) })
				<-gate
				for i := per + 1; i <= per+burst; i++ {
					mt.SendTo(r, 1, chatterPayload{ID: int64(i)})
				}
			}
		})
	})
	if err != nil {
		for i, f := range u.FaultLog() {
			t.Logf("fault[%d]: kind=%s rank=%d epoch=%d detail=%s", i, f.Kind, f.Rank, f.Epoch, f.Detail)
		}
		t.Logf("counters: %+v", u.Stats.Snapshot())
		t.Fatalf("Run: %v", err)
	}
	want := ringWant(2, per) + int64(burst)*int64(2*per+burst+1)/2
	if got := ck.sum(); got != want {
		t.Fatalf("ring sum = %d after outage + recovery, want %d", got, want)
	}
	s := u.Stats.Snapshot()
	if s.Recoveries < 1 || s.EpochAborts < 1 {
		t.Fatalf("an outage past the budget must cost an epoch attempt, got %+v", s)
	}
	if s.Reconnects < 1 {
		t.Fatalf("the replay must have reconnected once dials succeed, got %+v", s)
	}
	var sawTransportFault bool
	for _, f := range u.FaultLog() {
		if f.Kind == FaultTransport {
			sawTransportFault = true
		}
	}
	if !sawTransportFault {
		t.Fatalf("exhausted reconnect budget must raise FaultTransport; fault log: %v", u.FaultLog())
	}
}

// TestSelfSendsStayLocal: on a socket universe whose plan injects no link
// fault, a rank's mail to itself crosses no network. Each rank's body and
// handlers mail both itself and its peer, one message per envelope. Only the
// cross-rank envelopes are acknowledged and encoded (WireBytes), no self-link
// is ever sequenced, let alone retransmitted, and the results are those of
// the in-process transport bit for bit. The same universe with Drop > 0 still
// sequences its self-links, so the injector perturbs every link it did.
func TestSelfSendsStayLocal(t *testing.T) {
	requireLoopback(t)
	const per = 64
	run := func(t *testing.T, cfg config) ([2]int64, *Universe, *MsgType[chatterPayload]) {
		t.Helper()
		var sums [2]int64
		u := newUniverse(cfg)
		var mt *MsgType[chatterPayload]
		mt = Register(u, "self", func(r *Rank, m chatterPayload) {
			atomic.AddInt64(&sums[r.ID()], m.ID*(m.Hop+1))
			if m.Hop == 0 {
				mt.SendTo(r, r.ID(), chatterPayload{ID: m.ID, Hop: 1})
				mt.SendTo(r, 1-r.ID(), chatterPayload{ID: m.ID, Hop: 2})
			}
		}).WithWire()
		if err := u.Run(func(r *Rank) {
			r.Epoch(func(ep *Epoch) {
				for i := int64(1); i <= per; i++ {
					mt.SendTo(r, r.ID(), chatterPayload{ID: i})
					mt.SendTo(r, 1-r.ID(), chatterPayload{ID: 1000 + i})
				}
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sums, u, mt
	}
	base := config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 1}
	want, _, _ := run(t, base)

	// The bodies mail per messages to self and per across on each rank, and
	// each of those handlers one more of each: 6·per to self and 6·per across,
	// one envelope each.
	const self, cross = 6 * per, 6 * per
	for _, c := range []struct {
		name string
		plan *FaultPlan
	}{
		// A retransmit timeout no ack can miss keeps the ack count exact.
		{"zero", &FaultPlan{retransmitBase: 1 << 20}},
		{"drop", &FaultPlan{Seed: 5, Drop: 0.1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			cfg.FaultPlan = c.plan
			cfg.Transport = SockTransport(fastSockOptions("unix"))
			got, u, mt := run(t, cfg)
			if got != want {
				t.Fatalf("per-rank sums %v, want %v (chan)", got, want)
			}
			s := u.Stats.Snapshot()
			if s.Envelopes != self+cross {
				t.Fatalf("%d envelopes, want %d", s.Envelopes, self+cross)
			}
			for i, r := range u.ranks {
				if seq := r.send[i][mt.id].nextSeq; (seq != 0) != (c.name == "drop") {
					t.Errorf("rank %d sequenced %d envelopes to itself under the %s plan", i, seq, c.name)
				}
			}
			if c.name == "drop" {
				return
			}
			if s.AckMsgs != cross || s.Retransmits != 0 || s.DupsSuppressed != 0 {
				t.Errorf("acks %d, retransmits %d, dups suppressed %d; want %d, 0, 0",
					s.AckMsgs, s.Retransmits, s.DupsSuppressed, cross)
			}
			// Each rank mails across {1000+i, 0} from its body and {i, 2},
			// {1000+i, 2} from its handlers.
			var wire int64
			for i := int64(1); i <= per; i++ {
				for _, m := range []chatterPayload{{ID: 1000 + i}, {ID: i, Hop: 2}, {ID: 1000 + i, Hop: 2}} {
					b, _ := mt.codec.Append(nil, []chatterPayload{m})
					wire += 2 * int64(len(b))
				}
			}
			if s.WireBytes != wire {
				t.Errorf("wire bytes %d, want %d (the %d cross-rank envelopes only)", s.WireBytes, wire, cross)
			}
		})
	}
}
