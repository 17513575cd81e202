// Package ckpt is the serialized checkpoint layer behind multi-process
// crash recovery: a tiny append-style binary codec (Enc/Dec) shared by the
// property-map / Δ-bucket / engine snapshot encoders, plus the on-disk
// checkpoint file a replacement worker process reloads after a crash.
//
// The file format is deliberately dumb: one internal/frame hello frame
// (magic "DPCK", so frame.Version versions it) whose body is a fixed header
// identifying the run, epoch and rank range, then one length-prefixed blob
// per (local rank, registered checkpointer) pair in registration order; the
// frame's CRC seals it. Files are written atomically (temp + rename) so a
// crash mid-write can never corrupt the previous slot.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"declpat/internal/frame"
)

// Magic identifies a checkpoint file ("DeclPat ChecKpoint").
const Magic = "DPCK"

// ErrCorrupt is wrapped by Decode and ReadFile when the file fails
// structural or CRC validation. A file of another frame.Version fails with
// frame.ErrHello instead.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// Enc is an append-style binary encoder. The zero value is ready to use;
// all integers are little-endian, variable-length fields are u32
// length-prefixed.
type Enc struct {
	B []byte
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.B = append(e.B, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Bytes appends a u32 length prefix followed by the raw bytes.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.B = append(e.B, b...)
}

// Bool appends one byte, 1 for true and 0 for false.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// I64Slice appends a u32 count followed by the values.
func (e *Enc) I64Slice(vs []int64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.I64(v)
	}
}

// Dec is the matching sticky-error decoder: the first malformed field sets
// Err and every later read returns a zero value, so callers validate once
// at the end instead of after every field.
type Dec struct {
	B   []byte
	Off int
	Err error
}

// fail records the first decode error.
func (d *Dec) fail(what string) {
	if d.Err == nil {
		d.Err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, d.Off)
	}
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	if d.Err != nil || d.Off+1 > len(d.B) {
		d.fail("u8")
		return 0
	}
	v := d.B[d.Off]
	d.Off++
	return v
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	if d.Err != nil || d.Off+4 > len(d.B) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.B[d.Off:])
	d.Off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	if d.Err != nil || d.Off+8 > len(d.B) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.B[d.Off:])
	d.Off += 8
	return v
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Bool reads one byte that must be 0 or 1.
func (d *Dec) Bool() bool {
	v := d.U8()
	d.Check(v <= 1, "bool")
	return v == 1
}

// Check fails the decode unless ok: for bytes that are present but that the
// format forbids, such as an unsorted set or an empty bucket. Decoders that
// reject every non-canonical input accept exactly what their encoder writes.
func (d *Dec) Check(ok bool, what string) {
	if !ok && d.Err == nil {
		d.Err = fmt.Errorf("%w: bad %s before offset %d", ErrCorrupt, what, d.Off)
	}
}

// Bytes reads a u32 length prefix and returns a subslice of the input (no
// copy; callers that retain it past the buffer's life must copy).
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	if d.Err != nil || n < 0 || d.Off+n > len(d.B) {
		d.fail("bytes")
		return nil
	}
	v := d.B[d.Off : d.Off+n : d.Off+n]
	d.Off += n
	return v
}

// Count reads a u32 element count and fails unless the bytes that remain
// can hold that many elements of at least elemMin bytes each, so the caller
// may size an allocation by the result: a count is never trusted before the
// bytes that would back it. Returns 0 on failure.
func (d *Dec) Count(elemMin int) int {
	n := int(d.U32())
	if d.Err != nil || n < 0 || n > (len(d.B)-d.Off)/elemMin {
		d.fail("count")
		return 0
	}
	return n
}

// CountIs reads a count, as Count, that must equal want: the length of the
// live structure a snapshot restores into.
func (d *Dec) CountIs(elemMin, want int) {
	if n := d.Count(elemMin); d.Err == nil && n != want {
		d.Err = fmt.Errorf("%w: %d elements where the live state has %d", ErrCorrupt, n, want)
	}
}

// Apply restores live state from a snapshot blob. It runs decode twice: a
// dry run (write false) that reads every byte and makes every check, then,
// only if that consumed b exactly without error, the run that writes. A blob
// that does not fit leaves the live state as it was.
func Apply(b []byte, decode func(d *Dec, write bool)) error {
	d := Dec{B: b}
	decode(&d, false)
	if err := d.Done(true); err != nil {
		return err
	}
	d = Dec{B: b}
	decode(&d, true)
	return nil
}

// Done returns the sticky decode error, or an error if trailing bytes
// remain when strict is set.
func (d *Dec) Done(strict bool) error {
	if d.Err != nil {
		return d.Err
	}
	if strict && d.Off != len(d.B) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.B)-d.Off)
	}
	return nil
}

// Snapshot is one worker's checkpoint: the state of every registered
// checkpointer for every rank in [Lo, Hi), taken at an epoch boundary.
// Blobs[rank-Lo][i] is checkpointer i's encoded snapshot of that rank, in
// universe registration order (the order is part of the format: a
// replacement process registers the same checkpointers in the same order,
// so indices line up without names).
type Snapshot struct {
	RunID uint64
	Epoch int64
	Lo    uint32
	Hi    uint32
	Blobs [][][]byte
}

// Encode serializes the snapshot as a sealed DPCK hello frame, ready to be
// written to disk.
func (s *Snapshot) Encode() []byte {
	e := Enc{B: frame.Hello(frame.Begin(nil, frame.KindHello), Magic)}
	e.U64(s.RunID)
	e.I64(s.Epoch)
	e.U32(s.Lo)
	e.U32(s.Hi)
	e.U32(uint32(len(s.Blobs)))
	for _, rankBlobs := range s.Blobs {
		e.U32(uint32(len(rankBlobs)))
		for _, b := range rankBlobs {
			e.Bytes(b)
		}
	}
	return frame.Seal(e.B)
}

// Decode parses and validates an encoded snapshot: the whole buffer must be
// one DPCK frame of this frame.Version.
func Decode(b []byte) (*Snapshot, error) {
	body, err := frame.Open(b, Magic)
	if errors.Is(err, frame.ErrCorrupt) {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	d := Dec{B: body}
	s := &Snapshot{RunID: d.U64(), Epoch: d.I64(), Lo: d.U32(), Hi: d.U32()}
	// A rank entry is at least its blob count and a blob at least its
	// length prefix: 4 bytes each.
	nRanks := d.Count(4)
	for i := 0; i < nRanks && d.Err == nil; i++ {
		nBlobs := d.Count(4)
		blobs := make([][]byte, 0, nBlobs)
		for j := 0; j < nBlobs && d.Err == nil; j++ {
			blobs = append(blobs, d.Bytes())
		}
		s.Blobs = append(s.Blobs, blobs)
	}
	if err := d.Done(true); err != nil {
		return nil, err
	}
	return s, nil
}

// WriteFile atomically writes the snapshot to path.
func WriteFile(path string, s *Snapshot) error {
	return WriteFileAtomic(path, s.Encode())
}

// WriteFileAtomic writes data to a temp file in path's directory, fsyncs it
// and renames it over path, so readers only ever see the old complete file
// or the new one — never a torn write, whenever the process dies.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: rename: %w", err)
	}
	return nil
}

// ReadFile reads and validates a snapshot written by WriteFile.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	return s, nil
}
