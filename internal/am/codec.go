package am

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Wire codecs.
//
// A Codec[T] turns a coalesced batch []T into wire bytes and back. Outside
// a trusted universe every sequenced envelope — everything that crosses a
// link — is encoded with its type's codec, sealed with a CRC-64 checksum,
// accounted at its true serialized size in Stats.WireBytes, and decoded on
// arrival.
//
// One codec ships: FixedCodec, a zero-reflection fixed word-schema encoding
// for pointer-free payload types (the vertex/distance/component structs
// every bundled algorithm ships). The schema — the flattened sequence of
// primitive lanes of T — is computed once at construction with reflection;
// encoding and decoding then run over a precomputed offset table with no
// reflection, no type metadata on the wire, and no allocation (buffers come
// from pools). RegisterBatch equips it on a universe that is not trusted
// when T has a fixed layout; WithWire selects it and rejects a T it cannot
// encode; WithCodec plugs in any other Codec[T].

// Codec serializes batches of one message type for the links they cross.
// Implementations must be safe for concurrent use: one codec instance
// serves every rank and handler thread of the universe.
//
// Append appends the encoded batch to dst and returns the extended slice;
// an error marks T unencodable (a programmer error — the transport panics,
// since retransmitting an unencodable batch could never succeed).
//
// Decode parses b into dst (reusing its capacity; dst may be nil) and
// returns the decoded batch. Decode must treat b as untrusted input: on
// malformed bytes it returns an error and the transport routes the envelope
// through the corruption→retransmit path instead of crashing the rank.
type Codec[T any] interface {
	// Name identifies the codec in diagnostics ("fixed", ...).
	Name() string
	Append(dst []byte, batch []T) ([]byte, error)
	Decode(dst []T, b []byte) ([]T, error)
}

// encBuf is a pooled wire-encode buffer plus the delivery refcount of the
// envelope(s) currently sharing it (a duplicated envelope is pushed twice
// from one buffer).
type encBuf struct {
	b    []byte
	refs atomic.Int32
}

// encBufPool recycles wire-encode buffers across envelopes. Ownership rule:
// the sender owns the buffer from encode until the last push; each delivered
// (or discarded) copy releases one reference, and whoever drops it to zero
// returns the buffer. An envelope abandoned inside a queue (a crashed rank's
// DropAll, post-run Close) simply leaks its buffer to the GC — never double-release.
var encBufPool = sync.Pool{New: func() any { return &encBuf{b: make([]byte, 0, 1024)} }}

// wirePayload is the wire form of a sequenced envelope: the encoded batch
// plus a checksum computed over the clean bytes at the sender. eb, when
// non-nil, is the pooled buffer backing b. verified marks bytes the
// transport has already checked end to end (a socket frame's CRC covers them
// and nothing alters them between sealing and framing), so delivery does not
// checksum them a second time.
type wirePayload struct {
	b        []byte
	sum      uint64
	eb       *encBuf
	verified bool
}

// release returns one delivery reference; the last reference recycles the
// pooled buffer. Safe (and a no-op) on unpooled payloads.
func (wp wirePayload) release() {
	if wp.eb != nil && wp.eb.refs.Add(-1) == 0 {
		wp.eb.b = wp.b[:0]
		encBufPool.Put(wp.eb)
	}
}

// --- fixed word-schema codec ---------------------------------------------

// The fixed codec's wire format:
//
//	envelope := uvarint(count) message*
//	message  := bitmap( ceil(lanes/8) bytes ) word*
//
// The schema flattens T into an ordered list of primitive lanes (struct
// fields and array elements, recursively). Bit i of the bitmap is set when
// lane i is non-zero; bool lanes are carried entirely by their bit, every
// other set lane appends one uvarint word in lane order. Transforms make
// common values small: signed lanes are zigzag-encoded, float lanes are
// bit-reversed (so round float values keep leading zeros). Zero-heavy
// payloads — the common case for coalesced algorithm traffic — cost one
// bitmap bit per absent field. The envelope carries no version: envelopes
// cross a process boundary only on a socket, whose hello carries
// frame.Version.

// laneKind classifies one primitive lane of a fixed-layout schema.
type laneKind uint8

const (
	laneUint laneKind = iota
	laneInt
	laneBool
	laneFloat
)

// lane is one primitive slot of the flattened payload type.
type lane struct {
	off  uintptr
	size uint8 // 1, 2, 4, or 8 bytes
	kind laneKind
}

// appendLanes flattens t (rooted at byte offset base) into lanes. It reports
// false when t contains a non-fixed-layout component (pointer, slice, map,
// string, chan, func, interface, complex).
func appendLanes(lanes []lane, t reflect.Type, base uintptr) ([]lane, bool) {
	switch t.Kind() {
	case reflect.Bool:
		return append(lanes, lane{off: base, size: 1, kind: laneBool}), true
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
		return append(lanes, lane{off: base, size: uint8(t.Size()), kind: laneInt}), true
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint, reflect.Uintptr:
		return append(lanes, lane{off: base, size: uint8(t.Size()), kind: laneUint}), true
	case reflect.Float32, reflect.Float64:
		return append(lanes, lane{off: base, size: uint8(t.Size()), kind: laneFloat}), true
	case reflect.Array:
		elem := t.Elem()
		for i := 0; i < t.Len(); i++ {
			var ok bool
			lanes, ok = appendLanes(lanes, elem, base+uintptr(i)*elem.Size())
			if !ok {
				return nil, false
			}
		}
		return lanes, true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			var ok bool
			lanes, ok = appendLanes(lanes, f.Type, base+f.Offset)
			if !ok {
				return nil, false
			}
		}
		return lanes, true
	default:
		return nil, false
	}
}

// fixedCodec is the zero-reflection word-schema codec for one payload type.
type fixedCodec[T any] struct {
	lanes  []lane
	bmLen  int // presence-bitmap bytes per message
	nWords int // numeric (non-bool) lanes: worst-case varint count
}

// FixedCodec constructs the fixed word-schema codec for T. It returns an
// error when T is not a fixed-layout type (contains pointers, slices, maps,
// strings, interfaces, chans, funcs, or complex numbers); such types need a
// codec of their own (WithCodec). All reflection happens here, once; the
// returned codec's encode and decode paths are reflection-free.
func FixedCodec[T any]() (Codec[T], error) {
	var zero T
	t := reflect.TypeOf(zero)
	if t == nil {
		return nil, fmt.Errorf("am: FixedCodec: interface payload type")
	}
	lanes, ok := appendLanes(nil, t, 0)
	if !ok {
		return nil, fmt.Errorf("am: FixedCodec: %v is not a fixed-layout type (reference or complex component)", t)
	}
	if len(lanes) == 0 {
		return nil, fmt.Errorf("am: FixedCodec: %v has no encodable fields", t)
	}
	c := &fixedCodec[T]{lanes: lanes, bmLen: (len(lanes) + 7) / 8}
	for _, ln := range lanes {
		if ln.kind != laneBool {
			c.nWords++
		}
	}
	return c, nil
}

// HasFixedLayout reports whether FixedCodec[T] would succeed — whether T is
// composed entirely of fixed-size primitives (bools, integers, floats,
// arrays and structs thereof).
func HasFixedLayout[T any]() bool {
	_, err := FixedCodec[T]()
	return err == nil
}

func (c *fixedCodec[T]) Name() string { return "fixed" }

// loadLane reads one lane of the message at base as its wire word.
func loadLane(base unsafe.Pointer, ln lane) uint64 {
	p := unsafe.Add(base, ln.off)
	var v uint64
	switch ln.size {
	case 1:
		v = uint64(*(*uint8)(p))
	case 2:
		v = uint64(*(*uint16)(p))
	case 4:
		v = uint64(*(*uint32)(p))
	default:
		v = *(*uint64)(p)
	}
	switch ln.kind {
	case laneInt:
		// Sign-extend from the lane width, then zigzag.
		shift := 64 - 8*uint(ln.size)
		s := int64(v<<shift) >> shift
		return uint64((s << 1) ^ (s >> 63))
	case laneFloat:
		if ln.size == 4 {
			v = math.Float64bits(float64(math.Float32frombits(uint32(v))))
		}
		return bits.ReverseBytes64(v)
	default:
		return v
	}
}

// storeLane writes one decoded wire word into the message at base. It
// reports false when the word does not fit the lane (corrupted input).
func storeLane(base unsafe.Pointer, ln lane, w uint64) bool {
	p := unsafe.Add(base, ln.off)
	switch ln.kind {
	case laneBool:
		*(*bool)(p) = w != 0
		return true
	case laneInt:
		s := int64(w>>1) ^ -int64(w&1)
		switch ln.size {
		case 1:
			if s < math.MinInt8 || s > math.MaxInt8 {
				return false
			}
			*(*int8)(p) = int8(s)
		case 2:
			if s < math.MinInt16 || s > math.MaxInt16 {
				return false
			}
			*(*int16)(p) = int16(s)
		case 4:
			if s < math.MinInt32 || s > math.MaxInt32 {
				return false
			}
			*(*int32)(p) = int32(s)
		default:
			*(*int64)(p) = s
		}
		return true
	case laneFloat:
		f := math.Float64frombits(bits.ReverseBytes64(w))
		if ln.size == 4 {
			*(*float32)(p) = float32(f)
		} else {
			*(*float64)(p) = f
		}
		return true
	default:
		switch ln.size {
		case 1:
			if w > math.MaxUint8 {
				return false
			}
			*(*uint8)(p) = uint8(w)
		case 2:
			if w > math.MaxUint16 {
				return false
			}
			*(*uint16)(p) = uint16(w)
		case 4:
			if w > math.MaxUint32 {
				return false
			}
			*(*uint32)(p) = uint32(w)
		default:
			*(*uint64)(p) = w
		}
		return true
	}
}

func (c *fixedCodec[T]) Append(dst []byte, batch []T) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for i := range batch {
		base := unsafe.Pointer(&batch[i])
		bmAt := len(dst)
		for j := 0; j < c.bmLen; j++ {
			dst = append(dst, 0)
		}
		for li := range c.lanes {
			ln := c.lanes[li]
			w := loadLane(base, ln)
			if w == 0 {
				continue
			}
			dst[bmAt+li>>3] |= 1 << (li & 7)
			if ln.kind != laneBool {
				dst = binary.AppendUvarint(dst, w)
			}
		}
	}
	return dst, nil
}

func (c *fixedCodec[T]) Decode(dst []T, b []byte) ([]T, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("am: fixed codec: truncated count")
	}
	b = b[n:]
	// Every message costs at least its bitmap, so an absurd count is
	// detectable before allocating for it. (The first check also keeps the
	// multiplication below from overflowing.)
	if count > uint64(len(b)) || count*uint64(c.bmLen) > uint64(len(b)) {
		return nil, fmt.Errorf("am: fixed codec: count %d exceeds payload", count)
	}
	dst = dst[:0]
	if cap(dst) < int(count) {
		dst = make([]T, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		if len(b) < c.bmLen {
			return nil, fmt.Errorf("am: fixed codec: truncated bitmap at message %d", i)
		}
		bm := b[:c.bmLen]
		b = b[c.bmLen:]
		var m T
		base := unsafe.Pointer(&m)
		for li := range c.lanes {
			if bm[li>>3]&(1<<(li&7)) == 0 {
				continue
			}
			ln := c.lanes[li]
			w := uint64(1) // bool lanes carry their value in the bit itself
			if ln.kind != laneBool {
				var n int
				w, n = binary.Uvarint(b)
				if n <= 0 {
					return nil, fmt.Errorf("am: fixed codec: truncated word at message %d lane %d", i, li)
				}
				if w == 0 {
					return nil, fmt.Errorf("am: fixed codec: explicit zero word at message %d lane %d", i, li)
				}
				b = b[n:]
			}
			if !storeLane(base, ln, w) {
				return nil, fmt.Errorf("am: fixed codec: word overflows lane %d at message %d", li, i)
			}
		}
		dst = append(dst, m)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("am: fixed codec: %d trailing bytes", len(b))
	}
	return dst, nil
}
