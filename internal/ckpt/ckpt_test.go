package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"declpat/internal/frame"
)

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U8(7)
	e.U32(1 << 30)
	e.U64(1 << 60)
	e.I64(-42)
	e.Bytes([]byte{1, 2, 3})
	e.I64Slice([]int64{-1, 0, 9})
	e.I64Slice(nil)

	d := Dec{B: e.B}
	if got := d.U8(); got != 7 {
		t.Fatalf("u8 = %d", got)
	}
	if got := d.U32(); got != 1<<30 {
		t.Fatalf("u32 = %d", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Fatalf("u64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("i64 = %d", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", got)
	}
	if n := d.Count(8); n != 3 || d.I64() != -1 || d.I64() != 0 || d.I64() != 9 {
		t.Fatalf("i64slice of %d", n)
	}
	if n := d.Count(8); n != 0 {
		t.Fatalf("empty i64slice of %d", n)
	}
	if err := d.Done(true); err != nil {
		t.Fatalf("done: %v", err)
	}
}

func TestDecTruncation(t *testing.T) {
	var e Enc
	e.Bytes([]byte("payload"))
	for cut := 0; cut < len(e.B); cut++ {
		d := Dec{B: e.B[:cut]}
		_ = d.Bytes()
		if d.Err == nil && cut < len(e.B) {
			t.Fatalf("cut=%d: expected sticky error", cut)
		}
		// Reads after the error stay zero-valued instead of panicking.
		if v := d.U64(); v != 0 {
			t.Fatalf("cut=%d: post-error read = %d", cut, v)
		}
	}
}

func testSnapshot() *Snapshot {
	return &Snapshot{
		RunID: 0xfeedface,
		Epoch: 17,
		Lo:    2,
		Hi:    4,
		Blobs: [][][]byte{
			{[]byte("rank2-ckpt0"), nil, []byte{0xff}},
			{[]byte("rank3-ckpt0"), []byte("rank3-ckpt1"), []byte{}},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := testSnapshot()
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.RunID != s.RunID || got.Epoch != s.Epoch || got.Lo != s.Lo || got.Hi != s.Hi {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Blobs) != 2 || len(got.Blobs[0]) != 3 {
		t.Fatalf("blob shape: %+v", got.Blobs)
	}
	if string(got.Blobs[1][1]) != "rank3-ckpt1" {
		t.Fatalf("blob content: %q", got.Blobs[1][1])
	}
}

func TestSnapshotCorruption(t *testing.T) {
	enc := testSnapshot().Encode()
	for _, flip := range []int{0, 5, len(enc) / 2, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[flip] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("flip at %d: corruption not detected", flip)
		}
	}
	if _, err := Decode(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncation not detected")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty input not rejected")
	}
}

// TestSnapshotVersionReject: a sealed frame of another frame.Version or
// magic, and a slot file in the layout before checkpoints became frames
// (bare magic, u16 version 1, header, CRC trailer), are version errors —
// frame.ErrHello, not corruption.
func TestSnapshotVersionReject(t *testing.T) {
	header := func(e *Enc) {
		e.U64(1) // RunID
		e.I64(0) // Epoch
		e.U32(0) // Lo
		e.U32(1) // Hi
		e.U32(0) // rank entries
	}
	version := func(v uint16) []byte {
		e := Enc{B: binary.LittleEndian.AppendUint16(append(frame.Begin(nil, frame.KindHello), Magic...), v)}
		header(&e)
		return frame.Seal(e.B)
	}
	foreign := Enc{B: frame.Hello(frame.Begin(nil, frame.KindHello), "DPFR")}
	header(&foreign)
	old := Enc{B: append([]byte(Magic), 1, 0)} // u16 version 1
	header(&old)
	old.U64(0) // CRC trailer: never reached, the bare magic gives the file away
	for name, b := range map[string][]byte{
		"future version":   version(frame.Version + 1),
		"version 2":        version(2),
		"other magic":      frame.Seal(foreign.B),
		"pre-frame layout": old.B,
	} {
		_, err := Decode(b)
		if !errors.Is(err, frame.ErrHello) || errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want a version error (frame.ErrHello)", name, err)
		}
	}
}

// TestDecodeBoundsCountsByBytes: a CRC-valid file whose counts promise more
// than its bytes can hold is rejected before anything is sized by the count.
func TestDecodeBoundsCountsByBytes(t *testing.T) {
	for _, tc := range []struct {
		name           string
		nRanks, nBlobs uint32
	}{
		{"blob count", 1, 1 << 22}, // 96 MiB of slice headers if trusted
		{"rank count", 1 << 22, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := Enc{B: frame.Hello(frame.Begin(nil, frame.KindHello), Magic)}
			e.U64(1) // RunID
			e.I64(0) // Epoch
			e.U32(0) // Lo
			e.U32(1) // Hi
			e.U32(tc.nRanks)
			e.U32(tc.nBlobs)
			file := frame.Seal(e.B)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(file)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode = %v, want ErrCorrupt", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("Decode allocated %d bytes for a %d-byte file", got, len(file))
			}
		})
	}
}

func TestFileRoundTripAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt-w0-s1.dpck")
	s := testSnapshot()
	if err := WriteFile(path, s); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Epoch != s.Epoch || string(got.Blobs[0][0]) != "rank2-ckpt0" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Overwrite with a different epoch; the rename must fully replace it and
	// leave no temp files behind.
	s.Epoch = 18
	if err := WriteFile(path, s); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got, err = ReadFile(path)
	if err != nil {
		t.Fatalf("reread: %v", err)
	}
	if got.Epoch != 18 {
		t.Fatalf("epoch after rewrite = %d", got.Epoch)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("leftover files: %v", ents)
	}
}
