// Package frame is the module's one wire and file format. Every socket
// connection (the data plane in internal/am, the control plane in
// internal/mp) is a stream of frames, and every file (DPCK checkpoint
// slots, DPFR flight dumps) is exactly one:
//
//	u32 length | u8 kind | body | u64 crc
//
// all little-endian, with length covering kind+body+crc (so at least MinLen)
// and crc the CRC-64/ECMA of kind|body. A connection's first frame and a
// file's only frame is a hello — kind KindHello, body opening with a 4-byte
// magic and Version — so one number versions every format of a build. A body
// that is not laid out by hand for speed is canonical JSON (AppendJSON,
// DecodeJSON). The package also owns the module's single CRC table.
package frame

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"reflect"
)

// MinLen is the smallest length prefix a frame can announce: the kind byte
// plus the checksum.
const MinLen = 1 + 8

// Version is the format version every hello carries: bumped on any
// incompatible change to a frame kind or body, a hello, or a file layout.
// Both ends of a connection, and a file's writer and reader, must match
// exactly — a fleet runs one binary, so a mismatch means a stale peer or a
// file from another build.
const Version uint16 = 3

// KindHello is the kind of a hello frame.
const KindHello byte = 0

var table = crc64.MakeTable(crc64.ECMA)

// Checksum is the CRC-64/ECMA every seal in the module uses.
func Checksum(b []byte) uint64 { return crc64.Checksum(b, table) }

// ErrCorrupt is wrapped by Read when the stream carries something that is
// not a frame: a length prefix out of range or a checksum mismatch. Only a
// fresh connection recovers a stream that returned it.
var ErrCorrupt = errors.New("frame: corrupt")

// ErrHello is wrapped by CheckHello and Open when an intact frame is not a
// hello of the expected magic and Version: a stray from another protocol, or
// a peer or file from another build.
var ErrHello = errors.New("frame: bad hello")

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

// Hello appends the opening of a hello body to dst: the 4-byte magic naming
// the protocol or file, then Version as a u16.
func Hello(dst []byte, magic string) []byte {
	return binary.LittleEndian.AppendUint16(append(dst, magic...), Version)
}

// CheckHello verifies that body opens as Hello(nil, magic) writes it and
// returns the rest.
func CheckHello(body []byte, magic string) ([]byte, error) {
	if len(body) < 4+2 || string(body[:4]) != magic {
		return nil, fmt.Errorf("%w: want magic %q, got %q", ErrHello, magic, body[:min(len(body), 4)])
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != Version {
		return nil, fmt.Errorf("%w: %s version %d, want %d", ErrHello, magic, v, Version)
	}
	return body[4+2:], nil
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
	payload, err = verify(buf)
	return payload, buf, err
}

// verify checks the checksum of a frame read whole after its length prefix
// and returns the payload.
func verify(f []byte) ([]byte, error) {
	payload := f[:len(f)-8]
	if got, want := Checksum(payload), binary.LittleEndian.Uint64(f[len(f)-8:]); got != want {
		return nil, fmt.Errorf("%w: kind %d checksum mismatch (got %016x want %016x)", ErrCorrupt, payload[0], got, want)
	}
	return payload, nil
}

// Open parses b as a file: exactly one hello frame of the given magic, no
// byte before or after it. It returns the body after the hello, aliasing b.
// Damage wraps ErrCorrupt; another magic or Version — including a file
// written before its format became a frame, which opens with the bare
// magic — wraps ErrHello.
func Open(b []byte, magic string) ([]byte, error) {
	if len(b) < 4+MinLen || int(binary.LittleEndian.Uint32(b)) != len(b)-4 {
		if bytes.HasPrefix(b, []byte(magic)) {
			return nil, fmt.Errorf("%w: %s file predates frame version %d", ErrHello, magic, Version)
		}
		return nil, fmt.Errorf("%w: %d bytes are not one frame", ErrCorrupt, len(b))
	}
	payload, err := verify(b[4:])
	if err != nil {
		return nil, err
	}
	if payload[0] != KindHello {
		return nil, fmt.Errorf("%w: frame kind %d, want a hello", ErrHello, payload[0])
	}
	return CheckHello(payload[1:], magic)
}

// AppendJSON appends v's canonical JSON encoding to dst: json.Marshal's
// spelling of the value DecodeJSON would return for it. The two differ only
// where a string holds bytes that are not UTF-8: Marshal writes each such
// byte as \ufffd, which decodes to U+FFFD and re-encodes raw, so AppendJSON
// writes the decoded form.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err == nil && bytes.Contains(b, []byte(`\ufffd`)) {
		c := reflect.New(reflect.TypeOf(v)).Interface()
		if err = json.Unmarshal(b, c); err == nil {
			b, err = json.Marshal(c)
		}
	}
	if err != nil {
		return dst, fmt.Errorf("frame: JSON body: %w", err)
	}
	return append(dst, b...), nil
}

// DecodeJSON parses b into v, a pointer to a zero value, and accepts exactly
// what AppendJSON writes: JSON spells one value many ways (spacing, key order
// and case, escapes, number forms, duplicate or unknown keys), and only
// Marshal's spelling is a body. Anything else wraps ErrCorrupt.
func DecodeJSON(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%w: JSON body: %v", ErrCorrupt, err)
	}
	if re, err := json.Marshal(v); err != nil || !bytes.Equal(re, b) {
		return fmt.Errorf("%w: body is not its value's JSON encoding", ErrCorrupt)
	}
	return nil
}
