package am

import (
	"errors"
	"time"
)

// errTransportReused rejects binding one Transport value to a second
// universe: backends hold per-universe link state.
var errTransportReused = errors.New("transport value already bound to a universe (construct one per universe)")

// Transport moves envelopes between the ranks of one universe. It is the
// seam between the message plane (coalescing, reliable delivery, fault
// injection — everything above) and the medium frames actually cross:
// the default chanTransport hands envelopes to the destination rank's inbox
// in-process, while sockTransport (sock.go) serializes them into
// length-prefixed CRC-sealed frames over TCP or Unix-domain sockets.
//
// The contract is deliberately weaker than reliable delivery: a transport
// provides per-link ordered *best-effort* frame transfer. Frames may vanish
// (a dropped connection, a black-holed direction, an injected fault); the
// reliable layer (reliable.go) recovers them through its unack→retransmit
// table, which is why a backend that can lose frames must report
// shared() == false so the universe runs the full protocol. Semantics
// above the seam are identical on every backend — that is the chaos
// matrix's bit-identity claim.
//
// A Transport value is single-use: it binds to one universe at start and
// cannot be reused. The interface is intentionally unexported-method-only;
// backends live in this package and are constructed through ChanTransport /
// SockTransport (re-exported by the declpat facade).
type Transport interface {
	// Name identifies the backend in diagnostics and Metrics
	// ("chan", "sock-tcp", "sock-unix").
	Name() string

	// shared reports whether every rank on this backend lives in one address
	// space the backend itself does not model as separate: true only for the
	// in-process channel backend. A socket backend answers false even when
	// all its ranks share a process — its sockets stand in for separate
	// machines — and so keeps every hop a message (see Rank.Coresident).
	// A backend that is not shared can lose frames: New runs the
	// reliable-delivery layer on it (synthesizing a zero-valued FaultPlan
	// when none is given) with jittered retransmit backoff.
	shared() bool

	// tickInterval paces the retransmit clock: pollLinks advances a rank's
	// link tick at most once per interval, so tick-denominated timeouts
	// (FaultPlan.retransmitBase, backoff) correspond to real time on backends with
	// real latency. 0 (the in-process backend) keeps the original
	// one-tick-per-poll behavior; every socket backend has a positive
	// interval, which is what lets its universes park (Universe.park).
	tickInterval() time.Duration

	// start binds the transport to u. Called from Run once the type set is
	// frozen and per-rank state is allocated, before any goroutine that can
	// send. A non-nil error fails the run before it starts; start must
	// release anything it acquired before returning an error.
	start(u *Universe) error

	// send ships envelope e from rank src to rank dest. It never blocks on
	// the destination making progress and never fails loudly: a frame the
	// backend cannot deliver (link down, connection mid-reconnect, transport
	// closed) is dropped, counted, and left to the reliable layer. send owns
	// one delivery reference of a wirePayload envelope and must release it
	// exactly once (the in-process backend transfers it to the receiver).
	send(src, dest int, e envelope)

	// close tears the backend down and joins its goroutines. Called after
	// every rank main has returned; sends arriving after close are safe
	// no-ops (mirroring inbox.Push on a closed queue). Idempotent.
	close() error
}

// chanTransport is the default in-process backend: an envelope push is a
// direct hand-off to the destination rank's inbox queue. It cannot lose,
// reorder, or corrupt anything, so it works in trusted mode (no FaultPlan)
// with zero protocol overhead — the original behavior of the substrate.
type chanTransport struct {
	u *Universe
}

// ChanTransport returns the in-process channel backend (the default).
func ChanTransport() Transport { return &chanTransport{} }

func (t *chanTransport) Name() string                { return "chan" }
func (t *chanTransport) shared() bool                { return true }
func (t *chanTransport) tickInterval() time.Duration { return 0 }

func (t *chanTransport) start(u *Universe) error {
	if t.u != nil {
		return errTransportReused
	}
	t.u = u
	return nil
}

func (t *chanTransport) send(src, dest int, e envelope) {
	t.u.ranks[dest].inbox.Push(e)
}

func (t *chanTransport) close() error { return nil }

// Coresident reports whether rank dest's memory is this rank's to operate on
// directly: the transport says the two ranks share an address space, and the
// universe is in trusted mode — no FaultPlan, no lineage, not a
// multi-process rank host. Outside trusted mode every effect must stay a
// message, because that is what the fault injector perturbs, the reliable
// layer sequences, a restarted fleet replays, and causal tracing stamps.
// The pattern engine asks this per hop to choose between applying a
// single-word operation in place and sending it (DESIGN.md, "Co-resident
// direct application"). The answer is fixed for the life of the universe;
// today it is also the same for every link, since one transport carries them
// all.
func (r *Rank) Coresident(dest int) bool { return r.u.coresident }

// push ships envelope e from rank src to rank dest through the configured
// transport. Every sender-side hand-off in the message plane (ship, the
// fault injector's duplicates and final pushes, acks, delayed-envelope
// releases) goes through here; receiver-side deliveries of frames a socket
// backend reads stay direct inbox pushes inside the backend.
func (u *Universe) push(src, dest int, e envelope) {
	u.net.send(src, dest, e)
}
