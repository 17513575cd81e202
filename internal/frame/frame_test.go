package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func seal(kind byte, body []byte) []byte {
	return Seal(append(Begin(nil, kind), body...))
}

func TestRoundTripAndLayout(t *testing.T) {
	body := []byte("hello, rank 3")
	wire := seal(7, body)
	// u32 length | u8 kind | body | u64 crc, length covering kind+body+crc.
	if got, want := binary.LittleEndian.Uint32(wire), uint32(1+len(body)+8); got != want {
		t.Fatalf("length prefix = %d, want %d", got, want)
	}
	if wire[4] != 7 || !bytes.Equal(wire[5:5+len(body)], body) {
		t.Fatalf("kind/body misplaced: %x", wire)
	}
	if got, want := binary.LittleEndian.Uint64(wire[len(wire)-8:]), Checksum(wire[4:len(wire)-8]); got != want {
		t.Fatalf("trailer = %016x, want CRC of kind|body %016x", got, want)
	}
	payload, _, err := Read(bytes.NewReader(wire), nil, 1<<10)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if payload[0] != 7 || !bytes.Equal(payload[1:], body) {
		t.Fatalf("payload = %x, want kind 7 + %q", payload, body)
	}
	if empty := seal(3, nil); binary.LittleEndian.Uint32(empty) != MinLen {
		t.Fatalf("bodyless frame announces %d, want MinLen", binary.LittleEndian.Uint32(empty))
	}
}

func TestReadRejects(t *testing.T) {
	good := seal(1, []byte{1, 2, 3, 4})
	length := func(n uint32) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b, n)
		return b
	}
	flipped := append([]byte(nil), good...)
	flipped[6] ^= 0x40
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"below MinLen", length(MinLen - 1), ErrCorrupt},
		{"zero length", length(0), ErrCorrupt},
		{"above max", length(65), ErrCorrupt},
		{"huge length", length(1 << 31), ErrCorrupt},
		{"flipped body bit", flipped, ErrCorrupt},
		{"truncated body", good[:len(good)-3], io.ErrUnexpectedEOF},
		{"truncated header", good[:2], io.ErrUnexpectedEOF},
		{"empty stream", nil, io.EOF},
	} {
		_, buf, err := Read(bytes.NewReader(tc.in), nil, 64)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if cap(buf) > 64 {
			t.Errorf("%s: Read grew its buffer to %d bytes past max 64", tc.name, cap(buf))
		}
	}
}

// TestReadReusesBuffer: the socket read loop hands Read the buffer it got
// back, and a frame that fits costs no allocation.
func TestReadReusesBuffer(t *testing.T) {
	wire := seal(1, bytes.Repeat([]byte{0xab}, 300))
	r := bytes.NewReader(wire)
	_, buf, err := Read(r, nil, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(wire)
		if _, buf, err = Read(r, buf, 1<<10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Read into a large-enough buffer allocated %.0f times per frame", allocs)
	}
}

func TestHelloCheck(t *testing.T) {
	h := append(Hello(nil, "TEST"), 9, 8)
	if len(h) != 4+2+2 || binary.LittleEndian.Uint16(h[4:]) != Version {
		t.Fatalf("hello layout %x: want magic, u16 Version, rest", h)
	}
	rest, err := CheckHello(h, "TEST")
	if err != nil || !bytes.Equal(rest, []byte{9, 8}) {
		t.Fatalf("CheckHello = %x, %v; want the rest 0908", rest, err)
	}
	otherVersion := append([]byte(nil), h...)
	binary.LittleEndian.PutUint16(otherVersion[4:], Version-1)
	for name, b := range map[string][]byte{
		"wrong magic":   Hello(nil, "TESU"),
		"wrong version": otherVersion,
		"magic only":    []byte("TEST"),
		"empty":         nil,
	} {
		if _, err := CheckHello(b, "TEST"); !errors.Is(err, ErrHello) {
			t.Errorf("%s: got %v, want ErrHello", name, err)
		}
	}
}

// TestOpen: a file is exactly one hello frame; damage is ErrCorrupt, another
// magic, kind or Version is ErrHello, and so is a file in a pre-frame layout
// that opens with the bare magic.
func TestOpen(t *testing.T) {
	file := Seal(append(Hello(Begin(nil, KindHello), "FILE"), "body"...))
	body, err := Open(file, "FILE")
	if err != nil || string(body) != "body" {
		t.Fatalf("Open = %q, %v", body, err)
	}
	flipped := append([]byte(nil), file...)
	flipped[len(flipped)/2] ^= 0x40
	notHello := Seal(append(Hello(Begin(nil, 1), "FILE"), "body"...))
	preFrame := append(Hello(nil, "FILE"), "body and an old trailer"...)
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"trailing byte", append(append([]byte(nil), file...), 0), ErrCorrupt},
		{"truncated", file[:len(file)-1], ErrCorrupt},
		{"flipped bit", flipped, ErrCorrupt},
		{"empty", nil, ErrCorrupt},
		{"other magic", file, ErrHello},
		{"not a hello", notHello, ErrHello},
		{"pre-frame layout", preFrame, ErrHello},
	} {
		magic := "FILE"
		if tc.name == "other magic" {
			magic = "ELIF"
		}
		if _, err := Open(tc.in, magic); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestJSONCanonical: DecodeJSON accepts what AppendJSON writes, strings JSON
// escapes and bytes that are not UTF-8 included, and refuses every other
// spelling of the same value.
func TestJSONCanonical(t *testing.T) {
	type body struct {
		N    int32
		OK   bool
		S    string
		Vals []int64
	}
	for _, s := range []string{"plain", "<a & b>", "line\u2028sep", "bad \xff byte", `literal \ufffd`} {
		b, err := AppendJSON([]byte("pre"), body{N: -3, OK: true, S: s, Vals: []int64{1 << 62}})
		if err != nil || !bytes.HasPrefix(b, []byte("pre")) {
			t.Fatalf("%q: AppendJSON = %q, %v", s, b, err)
		}
		var got body
		if err := DecodeJSON(b[3:], &got); err != nil {
			t.Errorf("%q: DecodeJSON(%s): %v", s, b[3:], err)
		}
	}
	for _, in := range []string{
		`{"N":1,"OK":false,"S":"","Vals":null} `,         // trailing space
		`{"OK":false,"N":1,"S":"","Vals":null}`,          // key order
		`{"n":1,"OK":false,"S":"","Vals":null}`,          // key case
		`{"N":1.0,"OK":false,"S":"","Vals":null}`,        // number form
		`{"N":1,"OK":false,"S":"\u0061","Vals":null}`,    // escape
		`{"N":1,"OK":false,"S":"","Vals":null,"X":0}`,    // unknown key
		`{"N":4294967296,"OK":false,"S":"","Vals":null}`, // out of int32 range
		`{"N":1,"OK":2,"S":"","Vals":null}`,              // not a bool
	} {
		var got body
		if err := DecodeJSON([]byte(in), &got); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", in, err)
		}
	}
}

// FuzzRead feeds the reader arbitrary streams: it must never panic, never
// size a buffer past max whatever the length prefix claims, fail only with
// ErrCorrupt or the stream's own EOF, and accept exactly the frames Seal
// produces.
func FuzzRead(f *testing.F) {
	const max = 1 << 12
	f.Add(seal(1, []byte("body")))
	f.Add(seal(3, nil))
	f.Add(seal(2, bytes.Repeat([]byte{7}, 200))[:100])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, buf, err := Read(bytes.NewReader(b), nil, max)
		if cap(buf) > max {
			t.Fatalf("buffer grew to %d bytes, max is %d", cap(buf), max)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if want := seal(payload[0], payload[1:]); !bytes.HasPrefix(b, want) {
			t.Fatalf("accepted a frame Seal would not produce: payload %x from %x", payload, b)
		}
	})
}
