package ckpt

import (
	"bytes"
	"testing"
)

// FuzzDecode runs the DPCK container decoder over arbitrary bytes — what a
// torn, truncated or foreign slot file may hold. Decode must never panic,
// must never return more rank entries or blobs than the input's bytes could
// encode (4 bytes each at least), and must accept exactly what Encode
// produces: anything it accepts re-encodes to the same bytes.
func FuzzDecode(f *testing.F) {
	f.Add(testSnapshot().Encode())
	f.Add((&Snapshot{RunID: 1, Epoch: -1, Lo: 0, Hi: 1, Blobs: [][][]byte{{}}}).Encode())
	f.Add((&Snapshot{}).Encode())
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(b)
		if err != nil {
			return
		}
		elems := len(s.Blobs)
		for _, row := range s.Blobs {
			elems += len(row)
		}
		if elems > len(b)/4 {
			t.Fatalf("%d rank entries and blobs decoded from %d bytes", elems, len(b))
		}
		if re := s.Encode(); !bytes.Equal(re, b) {
			t.Fatalf("accepted %x, which re-encodes as %x", b, re)
		}
	})
}
