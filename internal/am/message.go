package am

import (
	"fmt"
	"reflect"
	"sync"

	"declpat/internal/frame"
	"declpat/internal/obs"
)

// msgType is the type-erased registration record for one message type.
type msgType struct {
	id   int32
	name string
	size int64 // payload bytes per message
	// deliver runs the handler for every message of an envelope payload;
	// lin is the batch-aligned lineage-id slice (nil when lineage is off).
	deliver func(r *Rank, data any, lin []uint64)
	// flushRank ships all non-empty buffers owned by r for this type.
	flushRank func(r *Rank) bool
	// newBufs allocates the per-rank typed coalescing buffers.
	newBufs func(nranks int) any
	// batchLen reports the number of messages in an envelope payload.
	batchLen func(data any) int
	// decode turns a checksum-verified wire payload back into []T (drawn
	// from the type's batch pool). Malformed bytes return an error, which
	// the caller routes through the corruption→retransmit path. nil while
	// the type has no codec, which Run refuses on every universe but a
	// trusted one.
	decode func(b []byte) (any, error)
	// recycle returns a []T batch to the type's pool. Callers must hold the
	// only reference: the receiver after delivering any batch (a decoded
	// copy, or a reference the sender relinquished at push), the reliable
	// layer when the last ack/retransmit reference to an outstanding batch
	// drops.
	recycle func(data any)
	// xmit performs one (re)transmission of an outstanding batch; used by
	// the reliable layer's type-erased retransmit path.
	xmit func(r *Rank, dest int, seq uint64, attempt int, data any, lin []uint64)
	// buffered counts messages currently held in r's coalescing buffers
	// for this type (sampled occupancy gauge).
	buffered func(r *Rank) int64
}

// Per-type counter ids within Universe.typeC (layout: typeID*3 + offset).
const (
	tcSent = iota
	tcHandled
	tcEnvelopes
	tcPerType
)

// TypeStats reports one message type's traffic: Sent counted when an envelope
// ships, Handled per delivered batch, both exact at quiescent points.
type TypeStats struct {
	Name      string
	Size      int64
	Sent      int64
	Handled   int64
	Envelopes int64
}

// TypeStats returns per-message-type traffic counters, in registration
// order. Read at quiescent points. Before Run (when the sharded counters are
// not yet allocated) all counts are zero.
func (u *Universe) TypeStats() []TypeStats {
	out := make([]TypeStats, len(u.types))
	for i, mt := range u.types {
		out[i] = TypeStats{Name: mt.name, Size: mt.size}
		if u.typeC != nil {
			out[i].Sent = u.typeC.Total(int(mt.id)*tcPerType + tcSent)
			out[i].Handled = u.typeC.Total(int(mt.id)*tcPerType + tcHandled)
			out[i].Envelopes = u.typeC.Total(int(mt.id)*tcPerType + tcEnvelopes)
		}
	}
	return out
}

// MsgType is a registered active-message type with payload T. The handler
// runs on the destination rank, possibly concurrently on several handler
// threads; handlers may freely send further messages of any type (the AM++
// property the paper depends on).
type MsgType[T any] struct {
	u        *Universe
	id       int32
	name     string
	size     int64
	handler  func(r *Rank, b []T)
	addr     func(m T) int
	coalesce int
	// codec encodes this type's sequenced envelopes (WithCodec); nil until
	// one is chosen or RegisterBatch equips the fixed codec.
	codec Codec[T]
	rec   *msgType

	// batchPool recycles []T slices: coalescing buffers on the send side,
	// decoded batches on the receive side. See newBatch/putBatch for the
	// ownership rules.
	batchPool sync.Pool
}

// newBatch returns an empty batch with reusable capacity, drawn from the
// type's pool when one is available.
func (t *MsgType[T]) newBatch() []T {
	if p, _ := t.batchPool.Get().(*[]T); p != nil {
		return (*p)[:0]
	}
	return make([]T, 0, t.coalesce)
}

// putBatch returns a batch to the pool. The caller must hold the only
// reference to b's backing array.
func (t *MsgType[T]) putBatch(b []T) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	t.batchPool.Put(&b)
}

// typedBufs holds one rank's per-destination coalescing buffers for one
// message type. Buffers are locked per destination because the rank's body
// thread and its handler threads send concurrently.
type typedBufs[T any] struct {
	mu  []sync.Mutex
	buf [][]T
	par [][]uint64 // causal parent per buffered message; nil when lineage off
}

// Register is RegisterBatch with a handler that takes one message at a time:
// it runs for each message of a delivered batch in turn.
func Register[T any](u *Universe, name string, handler func(r *Rank, m T)) *MsgType[T] {
	if handler == nil {
		panic("am: nil handler for message type " + name)
	}
	return RegisterBatch(u, name, func(r *Rank, b []T) {
		for _, m := range b {
			handler(r, m)
		}
	})
}

// RegisterBatch declares a new message type on u whose handler takes a
// delivered envelope's messages as one batch (the one delivery path), counted
// handled when it returns. With lineage on, a batch is one message, so each
// message's sends carry its own handler id as their parent. It must be called
// before Universe.Run; the handler must not be nil nor keep the batch.
func RegisterBatch[T any](u *Universe, name string, handler func(r *Rank, b []T)) *MsgType[T] {
	if u.frozen.Load() {
		panic("am: Register after Run")
	}
	if handler == nil {
		panic("am: nil handler for message type " + name)
	}
	var zero T
	mt := &MsgType[T]{
		u:        u,
		id:       int32(len(u.types)),
		name:     name,
		size:     int64(reflect.TypeOf(zero).Size()),
		handler:  handler,
		coalesce: u.cfg.CoalesceSize,
	}
	rec := &msgType{
		id:   mt.id,
		name: name,
		size: mt.size,
		deliver: func(r *Rank, data any, lin []uint64) {
			batch := data.([]T)
			u := r.u
			if !u.lineage {
				mt.handler(r, batch)
				r.handled(mt.id, len(batch))
				return
			}
			// Lineage path: the handler takes one message per call, each
			// invocation gets its own id, the ambient parent (r.cur,
			// facet-local) covers the handler's sends, and a
			// TraceHandler span records the (id, parent) edge. r.cur returns
			// to 0 before the function exits, so subsequent epoch-body sends
			// on this facet stamp as roots again.
			traced := u.tracer != nil
			for i := range batch {
				var parent uint64
				if i < len(lin) {
					parent = lin[i]
				}
				self := obs.HandlerLineageID(r.id, r.linSeq.Add(1))
				r.cur = self
				var start int64
				if traced {
					start = obs.Now()
				}
				mt.handler(r, batch[i:i+1])
				if traced {
					end := obs.Now()
					u.traceHandler(r.id, int64(mt.id), self, parent, end, end-start)
				}
			}
			r.cur = 0
			r.handled(mt.id, len(batch))
		},
		flushRank: func(r *Rank) bool { return mt.flushBuffers(r) },
		batchLen:  func(data any) int { return len(data.([]T)) },
		recycle:   func(data any) { mt.putBatch(data.([]T)) },
		xmit: func(r *Rank, dest int, seq uint64, attempt int, data any, lin []uint64) {
			mt.transmit(r, dest, seq, attempt, data.([]T), lin)
		},
		buffered: func(r *Rank) int64 {
			tb := r.bufs[mt.id].(*typedBufs[T])
			var n int64
			for dest := range tb.buf {
				tb.mu[dest].Lock()
				n += int64(len(tb.buf[dest]))
				tb.mu[dest].Unlock()
			}
			return n
		},
		newBufs: func(nranks int) any {
			tb := &typedBufs[T]{
				mu:  make([]sync.Mutex, nranks),
				buf: make([][]T, nranks),
			}
			if mt.u.lineage {
				tb.par = make([][]uint64, nranks)
			}
			return tb
		},
	}
	mt.rec = rec
	u.types = append(u.types, rec)
	if !u.trusted() {
		// Every sequenced envelope crosses a link as bytes: a fixed-layout
		// T gets the fixed codec here, any other needs WithCodec.
		if c, err := FixedCodec[T](); err == nil {
			mt.WithCodec(c)
		}
	}
	return mt
}

// WithAddresser installs an object-based address function: Send computes the
// destination rank from the payload (paper §IV-D). Returns the receiver for
// chaining.
func (t *MsgType[T]) WithAddresser(f func(m T) int) *MsgType[T] {
	t.addr = f
	return t
}

// WithCodec chooses the codec this type's envelopes are encoded with where
// they cross a link: every sequenced envelope is encoded to bytes, sealed
// with the wire checksum, accounted in Stats.WireBytes, and decoded on
// arrival. The medium, not the type, decides whether an envelope is encoded:
// a trusted universe ships every envelope by reference whatever its codec,
// and so does a reliable universe's unsequenced mail from a rank to itself
// (see ship). On any other universe RegisterBatch already equips the fixed
// codec when T has a fixed layout, and Run refuses a type with none.
func (t *MsgType[T]) WithCodec(c Codec[T]) *MsgType[T] {
	if t.u.frozen.Load() {
		panic("am: WithCodec after Run")
	}
	if c == nil {
		panic("am: nil codec for message type " + t.name)
	}
	t.codec = c
	t.rec.decode = func(b []byte) (any, error) {
		dst := t.newBatch()
		decoded, err := c.Decode(dst, b)
		if err != nil {
			t.putBatch(dst)
			return nil, err
		}
		return decoded, nil
	}
	return t
}

// WithWire chooses the zero-reflection fixed word-schema codec (WithCodec).
// It panics, naming T, when T is not a fixed-layout type (it holds a
// reference or complex component): such a type needs a codec of its own.
func (t *MsgType[T]) WithWire() *MsgType[T] {
	c, err := FixedCodec[T]()
	if err != nil {
		panic(fmt.Sprintf("am: WithWire on message type %q: %v", t.name, err))
	}
	return t.WithCodec(c)
}

// CodecName reports the type's wire codec ("" when it has none).
func (t *MsgType[T]) CodecName() string {
	if t.codec == nil {
		return ""
	}
	return t.codec.Name()
}

// Name returns the registration name.
func (t *MsgType[T]) Name() string { return t.name }

// Size returns the payload size in bytes.
func (t *MsgType[T]) Size() int64 { return t.size }

// Send routes m using the type's address function. It panics if no address
// function was installed or if the sender is not inside an epoch.
func (t *MsgType[T]) Send(r *Rank, m T) {
	if t.addr == nil {
		panic("am: Send on type " + t.name + " without addresser; use SendTo")
	}
	t.SendTo(r, t.addr(m), m)
}

// SendTo sends m to rank dest: SendAll of one message. Must be called inside
// an epoch (from an epoch body or from a handler).
func (t *MsgType[T]) SendTo(r *Rank, dest int, m T) {
	t.SendAll(r, dest, []T{m})
}

// SendAll sends ms to rank dest, in order, as one SendTo per message would:
// the one send path. It appends the run to dest's coalescing buffer and takes
// the buffer's lock once per envelope it fills, not once per message. Must be
// called inside an epoch (from an epoch body or from a handler).
func (t *MsgType[T]) SendAll(r *Rank, dest int, ms []T) {
	if dest < 0 || dest >= r.u.cfg.Ranks {
		panic(fmt.Sprintf("am: SendTo(%s): destination %d out of range [0,%d)", t.name, dest, r.u.cfg.Ranks))
	}
	if !r.inEpoch.Load() {
		panic("am: SendTo(" + t.name + ") outside an epoch")
	}
	if !r.u.trusted() && (r.crashed.Load() || r.u.epochState.Load() == epochAborting) {
		// A crashed rank sends nothing (crash-stop silence), and sends
		// into an aborting epoch are moot — the run is failing. Dropping
		// here (not panicking) matters: handlers call SendTo, and a panic
		// would be miscounted as a handler fault by the containment layer.
		return
	}
	// Causal lineage: a message's parent is the handler invocation currently
	// running on this facet, or — when none is (epoch-body code) — the
	// synthetic root of (current epoch, this rank).
	var parent uint64
	if r.u.lineage {
		if parent = r.cur; parent == 0 {
			parent = obs.RootLineageID(r.u.epochSeq.Load(), r.id)
		}
	}
	tb := r.bufs[t.id].(*typedBufs[T])
	for i := 0; i < len(ms); {
		var ship []T
		var shipLin []uint64
		tb.mu[dest].Lock()
		for ; i < len(ms) && ship == nil; i++ {
			if tb.buf[dest] == nil {
				tb.buf[dest] = t.newBatch()
			}
			if r.u.fourCounter {
				r.sentC.Add(1)
			} else if len(tb.buf[dest]) == 0 {
				r.u.pending.Add(1) // the buffer's token (see ship)
			}
			tb.buf[dest] = append(tb.buf[dest], ms[i])
			if tb.par != nil {
				tb.par[dest] = append(tb.par[dest], parent)
			}
			if len(tb.buf[dest]) >= t.coalesce {
				ship = tb.buf[dest]
				tb.buf[dest] = nil
				if tb.par != nil {
					shipLin = tb.par[dest]
					tb.par[dest] = nil
				}
			}
		}
		tb.mu[dest].Unlock()
		if ship != nil {
			t.ship(r, dest, ship, shipLin)
		}
	}
}

// ship hands a finished batch to the transport. In trusted mode (no
// FaultPlan) the envelope goes straight onto the destination rank's inbox by
// reference; in reliable mode it is assigned a sequence number, recorded as
// outstanding until acknowledged, and transmitted through the fault injector
// as the codec's bytes (transmit) — except a rank's mail to itself under a
// plan that injects no link fault (Universe.selfLocal), which crosses no
// network: it goes onto the rank's own inbox by reference and unsequenced,
// with no encode, checksum, outstanding entry, ack or dedup. In both
// reference cases the receiver recycles the batch once it is delivered.
func (t *MsgType[T]) ship(r *Rank, dest int, batch []T, lin []uint64) {
	u := r.u
	n := int64(len(batch))
	if !u.fourCounter && n > 1 {
		u.pending.Add(n - 1) // the buffer's token becomes n counts before the push
	}
	r.st.Add(cMsgsSent, n)
	r.tst.Add(int(t.id)*tcPerType+tcSent, n)
	r.st.Inc(cEnvelopes)
	r.tst.Inc(int(t.id)*tcPerType + tcEnvelopes)
	u.batchHist[t.id].Observe(r.id, n)
	u.trace(r.id, TraceShip, int64(t.id), n)
	if u.fp == nil || (dest == r.id && u.selfLocal) {
		r.st.Add(cBytesSent, t.wireSize(len(batch)))
		u.push(r.id, dest, envelope{
			typeID: t.id, src: int32(r.id),
			qid: u.curQuery.Load(), data: batch, lin: lin,
		})
		return
	}
	seq, o := r.nextSeq(dest, t.id, batch, lin)
	t.transmit(r, dest, seq, 0, batch, lin)
	o.release(t.rec)
}

// wireSize models the accounted bytes of one envelope: payload plus header,
// plus one lineage id per message when lineage is on (the id would ride the
// wire in a real deployment).
func (t *MsgType[T]) wireSize(n int) int64 {
	size := t.size*int64(n) + envelopeHeaderBytes
	if t.u.lineage {
		size += lineageIDBytes * int64(n)
	}
	return size
}

// encode serializes a batch with the type's codec into a pooled buffer,
// accounts the true serialized size, and seals it with the wire checksum.
// The caller must set the returned payload's delivery refcount (one per
// envelope push) before the envelope escapes. Encoding failure is a
// programmer error (a codec that cannot encode its own type): retransmitting
// a batch that cannot be encoded would never succeed, so it panics rather
// than entering the corruption→retransmit path.
func (t *MsgType[T]) encode(r *Rank, batch []T) wirePayload {
	eb := encBufPool.Get().(*encBuf)
	b, err := t.codec.Append(eb.b[:0], batch)
	if err != nil {
		panic(fmt.Sprintf("am: %s encode %s: %v", t.codec.Name(), t.name, err))
	}
	r.st.Add(cWireBytes, int64(len(b)))
	return wirePayload{b: b, sum: frame.Checksum(b), eb: eb}
}

// transmit performs one transmission attempt of envelope (r→dest, t, seq)
// through the fault injector: the batch is encoded afresh, and the envelope
// may be dropped, corrupted, duplicated, or delayed, each decided
// deterministically from (seed, link, seq, attempt). attempt 0 is the
// initial send; retransmits arrive here through msgType.xmit with fresh
// attempt numbers (and fresh fault rolls, so delivery eventually succeeds).
func (t *MsgType[T]) transmit(r *Rank, dest int, seq uint64, attempt int, batch []T, lin []uint64) {
	u := r.u
	fp := u.fp
	if attempt > 0 {
		r.st.Inc(cRetransmits)
		u.trace(r.id, TraceRetransmit, int64(t.id), int64(seq))
	}
	r.st.Add(cBytesSent, t.wireSize(len(batch)))
	if u.linkDown(r.id, dest) {
		// A severed link swallows the transmission outright; the
		// retransmit ceiling will eventually declare it dead.
		r.st.Inc(cEnvelopesDropped)
		u.trace(r.id, TraceDrop, int64(t.id), int64(seq))
		return
	}
	if fp.roll(faultDrop, r.id, dest, int(t.id), seq, attempt) < fp.Drop {
		r.st.Inc(cEnvelopesDropped)
		u.trace(r.id, TraceDrop, int64(t.id), int64(seq))
		return
	}
	dup := fp.roll(faultDup, r.id, dest, int(t.id), seq, attempt) < fp.Dup
	wp := t.encode(r, batch)
	if fp.roll(faultCorrupt, r.id, dest, int(t.id), seq, attempt) < fp.Corrupt {
		// Flip one byte after sealing the checksum: the receiver detects
		// the mismatch, discards, and awaits retransmit.
		i := fp.rollN(faultCorruptByte, r.id, dest, int(t.id), seq, attempt, len(wp.b)) - 1
		wp.b[i] ^= 0xff
	}
	// Each pushed copy of the envelope (original + duplicate) holds one
	// reference to the pooled buffer; the receiver releases per copy.
	if dup {
		wp.eb.refs.Store(2)
	} else {
		wp.eb.refs.Store(1)
	}
	e := envelope{typeID: t.id, src: int32(r.id), seq: seq,
		qid: u.curQuery.Load(), data: wp, lin: lin}
	if dup {
		r.st.Inc(cEnvelopesDuplicated)
		u.trace(r.id, TraceDup, int64(t.id), int64(seq))
		u.push(r.id, dest, e)
	}
	if fp.roll(faultDelay, r.id, dest, int(t.id), seq, attempt) < fp.Delay {
		jitter := fp.rollN(faultDelayTicks, r.id, dest, int(t.id), seq, attempt, 2*delayTicks)
		r.st.Inc(cEnvelopesDelayed)
		u.trace(r.id, TraceDelay, int64(t.id), int64(seq))
		r.holdDelayed(dest, e, r.linkTick.Load()+uint64(jitter))
		return
	}
	u.push(r.id, dest, e)
}

// envelopeHeaderBytes models the fixed per-envelope wire overhead (type id,
// count, routing) included in the byte accounting.
const envelopeHeaderBytes = 16

// lineageIDBytes models the per-message wire cost of a causal lineage id.
const lineageIDBytes = 8

// flushBuffers ships every non-empty buffer r owns for this type.
func (t *MsgType[T]) flushBuffers(r *Rank) bool {
	tb := r.bufs[t.id].(*typedBufs[T])
	worked := false
	for dest := range tb.buf {
		tb.mu[dest].Lock()
		batch := tb.buf[dest]
		if len(batch) == 0 {
			tb.mu[dest].Unlock()
			continue
		}
		tb.buf[dest] = nil
		var lin []uint64
		if tb.par != nil {
			lin = tb.par[dest]
			tb.par[dest] = nil
		}
		tb.mu[dest].Unlock()
		t.ship(r, dest, batch, lin)
		worked = true
	}
	return worked
}
