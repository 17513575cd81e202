package am

import "fmt"

// FaultPlan configures deterministic fault injection on the simulated
// network. Setting one with WithFaultPlan switches the transport into
// *reliable* mode: every shipped envelope carries a per-(src, dest, type)
// sequence number, the receiver deduplicates and acknowledges envelopes, and
// the sender retransmits unacknowledged envelopes with exponential backoff.
// With a nil FaultPlan the transport runs in the original trusted mode
// (direct hand-off, zero protocol overhead).
//
// Fault decisions are *stateless*: whether transmission attempt a of
// envelope seq on link (src, dest, type) is dropped, duplicated, delayed, or
// corrupted is a pure function of (Seed, link, seq, a). This makes the fault
// schedule on the data path reproducible for a fixed seed regardless of
// goroutine interleaving — the k-th envelope a link ships always suffers the
// same fate, and a retransmit (a new attempt) rolls fresh faults, so
// delivery eventually succeeds.
//
// All probabilities are in [0, 1]. Zero-valued rates inject nothing but
// still exercise the full reliable-delivery protocol (sequence numbers,
// acks, dedup) on every link between two ranks, which is how the protocol's
// overhead is measured (E16). A rank's mail to itself crosses no link, and
// is sequenced only under a plan that injects link faults.
type FaultPlan struct {
	// Seed drives every fault decision. Two universes configured with the
	// same plan see the same per-link fault schedule.
	Seed uint64
	// Drop is the probability that a transmitted envelope vanishes.
	// Acknowledgements are dropped with the same probability (a lost ack
	// forces a retransmit that the receiver suppresses as a duplicate).
	Drop float64
	// Dup is the probability that the network delivers an envelope twice.
	Dup float64
	// Delay is the probability that an envelope is held back by the
	// network and released out of order (after 1 to 2·delayTicks sender
	// progress ticks — a tick elapses each time the sending rank polls its
	// links), reordering it behind envelopes shipped later.
	Delay float64
	// Corrupt is the probability that the payload of a sequenced envelope
	// is corrupted in flight (a byte of the encoded stream is flipped after
	// the wire checksum is computed, so the receiver detects the damage,
	// discards the envelope, and lets the retransmit path recover). A
	// rank's unsequenced mail to itself ships by reference and cannot be
	// corrupted.
	Corrupt float64

	// deadLinks severs directed links for one epoch each: every
	// transmission (data and acks) from Src to Dest during that epoch
	// vanishes, so the sender's retransmit ceiling raises a LinkDead fault
	// and Universe.Run returns it. Only tests set it.
	deadLinks []deadLink

	// retransmitBase is the initial retransmit timeout in sender progress
	// ticks; attempt n waits retransmitBase << min(n, 6) ticks, spread by
	// ±25 % on a socket transport (see Universe.backoffTicks). 0 selects
	// the default (8).
	retransmitBase int
	// maxAttempts bounds transmissions per envelope; exceeding it raises a
	// structured LinkDead rank fault (at Drop = 0.2 the default ceiling of
	// 30 is reached with probability 0.2^30 ≈ 1e-21 per envelope). Only
	// transmissions the destination had a chance to answer count: one is
	// charged when the destination rank has looked at its inbox since the
	// previous transmission (see outEnvelope.charged). Universe.Run returns
	// the fault as an error. 0 selects the default (30).
	maxAttempts int
}

// deadLink severs the directed link Src→Dest for the duration of epoch
// Epoch (the universe-wide epoch sequence number, starting at 0).
type deadLink struct {
	Src, Dest int
	Epoch     int64
}

func (fp *FaultPlan) withDefaults() *FaultPlan {
	c := *fp
	if c.retransmitBase <= 0 {
		c.retransmitBase = 8
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = 30
	}
	for _, p := range []float64{c.Drop, c.Dup, c.Delay, c.Corrupt} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("am: FaultPlan probability %v outside [0,1]", p))
		}
	}
	return &c
}

// injectsLinkFaults reports whether the plan perturbs links: any drop,
// duplication, delay or corruption rate, or a severed link. Only then is a
// rank's link to itself sequenced like the others (MsgType.ship), so the
// injector perturbs exactly the envelopes it always did.
func (fp *FaultPlan) injectsLinkFaults() bool {
	return fp.Drop > 0 || fp.Dup > 0 || fp.Delay > 0 || fp.Corrupt > 0 || len(fp.deadLinks) > 0
}

// delayTicks is the mean hold time of a delayed envelope, in sender progress
// ticks.
const delayTicks = 8

// sockBackoffJitter is how far a socket transport spreads every retransmit
// timeout (±25 %), desynchronizing the retransmit burst that follows a
// reconnect. In-process transports keep the exact exponential timeouts.
const sockBackoffJitter = 0.25

// Fault decision kinds, mixed into the hash so each decision on the same
// (link, seq, attempt) is independent.
const (
	faultDrop = iota + 1
	faultDup
	faultDelay
	faultCorrupt
	faultCorruptByte
	faultDelayTicks
	faultAckDrop
	faultBackoffJitter
)

// splitmix64 is the SplitMix64 output function: a bijective avalanche mix
// used here as a keyed hash over fault-decision coordinates.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a uniform float64 in [0, 1) for one fault decision.
func (fp *FaultPlan) roll(kind, src, dest, typ int, seq uint64, attempt int) float64 {
	h := splitmix64(fp.Seed ^ splitmix64(uint64(kind)<<56|uint64(src)<<42|uint64(dest)<<28|uint64(typ)<<14|uint64(attempt)) ^ splitmix64(seq))
	return float64(h>>11) / (1 << 53)
}

// rollN returns a deterministic integer in [1, n] for one fault decision.
func (fp *FaultPlan) rollN(kind, src, dest, typ int, seq uint64, attempt, n int) int {
	if n <= 1 {
		return 1
	}
	return 1 + int(uint64(fp.roll(kind, src, dest, typ, seq, attempt)*float64(n)))%n
}
