// Package frame is the one framing layer under the socket data plane
// (internal/am) and the multi-process control plane (internal/mp):
//
//	u32 length | u8 kind | body | u64 crc
//
// all little-endian, with length covering kind+body+crc (so at least MinLen)
// and crc the CRC-64/ECMA of kind|body. It also owns the module's single
// CRC table; the DPCK checkpoint and DPFR flight-dump files seal themselves
// with the same Checksum.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
)

// MinLen is the smallest length prefix a frame can announce: the kind byte
// plus the checksum.
const MinLen = 1 + 8

var table = crc64.MakeTable(crc64.ECMA)

// Checksum is the CRC-64/ECMA every seal in the module uses.
func Checksum(b []byte) uint64 { return crc64.Checksum(b, table) }

// ErrCorrupt is wrapped by Read when the stream carries something that is
// not a frame: a length prefix out of range or a checksum mismatch. Only a
// fresh connection recovers a stream that returned it.
var ErrCorrupt = errors.New("frame: corrupt")

// Begin starts a frame of the given kind in dst (usually buf[:0] of a reused
// buffer): a length placeholder followed by the kind byte. The caller appends
// the body and calls Seal.
func Begin(dst []byte, kind byte) []byte { return append(dst, 0, 0, 0, 0, kind) }

// Seal finishes a frame started at f[0] by Begin: it appends the checksum of
// everything after the length placeholder (the frame's only CRC pass on the
// write side) and patches the length in.
func Seal(f []byte) []byte {
	f = binary.LittleEndian.AppendUint64(f, Checksum(f[4:]))
	binary.LittleEndian.PutUint32(f, uint32(len(f)-4))
	return f
}

// Read reads one frame from r. The announced length is checked against
// [MinLen, max] before anything is allocated for it; the frame is then read
// into buf (the length prefix too, so a reused buffer means no allocation
// per frame), which is grown only when its capacity is short, and verified.
// Read returns the payload (kind byte followed by the body) and the buffer
// it aliases, for the caller to pass to the next Read. I/O errors come back
// unwrapped; a bad length or checksum wraps ErrCorrupt.
func Read(r io.Reader, buf []byte, max uint32) (payload, next []byte, err error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, buf, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if n < MinLen || n > max {
		return nil, buf, fmt.Errorf("%w: length %d out of range [%d, %d]", ErrCorrupt, n, MinLen, max)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	payload = buf[:n-8]
	if got, want := Checksum(payload), binary.LittleEndian.Uint64(buf[n-8:]); got != want {
		return nil, buf, fmt.Errorf("%w: kind %d checksum mismatch (got %016x want %016x)", ErrCorrupt, payload[0], got, want)
	}
	return payload, buf, nil
}
