package obs

// Flight-recorder tests: dump/load round-trip through the sealed DPFR file,
// open-phase capture across a simulated kill, ring bounding, and the loader's
// rejection of truncated, corrupted, and mislabeled files.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"declpat/internal/frame"
)

func testRecorder(path string) *FlightRecorder {
	return NewFlightRecorder(FlightConfig{
		Path:   path,
		Label:  "test-worker",
		Worker: 2,
		RankLo: 4,
		RankHi: 8,
		RunID:  0xdeadbeef,
		Counters: func() map[string]int64 {
			return map[string]int64{"msgs": 100, "epochs": 3}
		},
	})
}

func TestFlightRecorderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight-2.dpfr")
	f := testRecorder(path)
	f.SetEpoch(3)
	f.Record(5, FlightEvent{TS: 10, Kind: "epoch-begin", Arg: 3})
	f.Record(6, FlightEvent{TS: 20, Dur: 7, Kind: "phase", Arg: int64(PhaseKernel), Arg2: 3})
	f.PhaseEnter(7, PhaseKernel, 25)
	f.EpochCommit(3, 30)
	f.SetClock(1_500_000, 80_000)
	f.Note("hello from the black box")
	if err := f.Persist("test fault"); err != nil {
		t.Fatal(err)
	}

	d, err := LoadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Label != "test-worker" || d.Worker != 2 || d.RankLo != 4 || d.RankHi != 8 || d.RunID != 0xdeadbeef {
		t.Fatalf("identity fields mangled: %+v", d)
	}
	if d.Reason != "test fault" || d.Epoch != 3 {
		t.Fatalf("reason/epoch mangled: %q epoch %d", d.Reason, d.Epoch)
	}
	if d.ClockOffsetNS != 1_500_000 || d.ClockErrNS != 80_000 {
		t.Fatalf("clock estimate mangled: %d ±%d", d.ClockOffsetNS, d.ClockErrNS)
	}
	if len(d.Events) != 2 || d.Events[0].Rank != 5 || d.Events[1].Rank != 6 || d.Events[1].Dur != 7 {
		t.Fatalf("events mangled: %+v", d.Events)
	}
	if len(d.OpenPhases) != 1 {
		t.Fatalf("open phases: %+v, want exactly rank 7's", d.OpenPhases)
	}
	if p := d.OpenPhases[0]; p.Rank != 7 || p.Phase != PhaseKernel.String() || p.Since != 25 || p.Epoch != 3 {
		t.Fatalf("open phase mangled: %+v", p)
	}
	if len(d.Epochs) != 1 || d.Epochs[0].Epoch != 3 || d.Epochs[0].Counters["msgs"] != 100 {
		t.Fatalf("epoch counter window mangled: %+v", d.Epochs)
	}
	if d.Counters["epochs"] != 3 {
		t.Fatalf("dump-time counters mangled: %+v", d.Counters)
	}
	if len(d.Notes) != 1 || d.Notes[0] != "hello from the black box" {
		t.Fatalf("notes mangled: %+v", d.Notes)
	}
	if d.WallTime == "" || d.DumpedTS == 0 {
		t.Fatalf("dump not timestamped: wall=%q ts=%d", d.WallTime, d.DumpedTS)
	}
}

// TestFlightRecorderPhaseExitClears pins the kill-mid-phase semantics: a
// closed phase leaves no open cell; an open one survives into the dump.
func TestFlightRecorderPhaseExitClears(t *testing.T) {
	f := testRecorder("")
	f.PhaseEnter(4, PhaseBarrier, 10)
	f.PhaseExit(4)
	f.PhaseEnter(5, PhaseEmit, 20)
	d := f.snapshot("test")
	if len(d.OpenPhases) != 1 || d.OpenPhases[0].Rank != 5 || d.OpenPhases[0].Phase != PhaseEmit.String() {
		t.Fatalf("open phases after exit: %+v, want only rank 5 in emit", d.OpenPhases)
	}
}

// TestFlightRecorderBounded pins the black-box guarantee: the ring never
// grows past its capacity and keeps the most recent events.
func TestFlightRecorderBounded(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{RankLo: 0, RankHi: 1, Capacity: 8})
	for i := 0; i < 100; i++ {
		f.Record(0, FlightEvent{TS: int64(i), Kind: "tick"})
	}
	d := f.snapshot("test")
	if len(d.Events) != 8 {
		t.Fatalf("ring held %d events, capacity 8", len(d.Events))
	}
	if d.Events[0].TS != 92 || d.Events[7].TS != 99 {
		t.Fatalf("ring kept %d..%d, want the newest 92..99", d.Events[0].TS, d.Events[7].TS)
	}
}

// TestFlightRecorderEpochWindowBounded pins the per-epoch counter window.
func TestFlightRecorderEpochWindowBounded(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{RankLo: 0, RankHi: 1, EpochWindow: 4})
	for e := int64(0); e < 20; e++ {
		f.EpochCommit(e, e*10)
	}
	d := f.snapshot("test")
	if len(d.Epochs) != 4 || d.Epochs[0].Epoch != 16 || d.Epochs[3].Epoch != 19 {
		t.Fatalf("epoch window %+v, want epochs 16..19", d.Epochs)
	}
}

func writeDump(t testing.TB, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "flight-0.dpfr")
	f := testRecorder(path)
	f.Record(4, FlightEvent{TS: 1, Kind: "epoch-begin"})
	if err := f.Persist("seed"); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlightDumpRejectsTruncated: a dump is exactly one frame, so a short
// file and one with a byte appended are both corrupt.
func TestFlightDumpRejectsTruncated(t *testing.T) {
	path := writeDump(t, t.TempDir())
	b, _ := os.ReadFile(path)
	for _, in := range [][]byte{b[:0], b[:4], b[:len(b)/2], b[:len(b)-1], append(append([]byte(nil), b...), '\n')} {
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFlightDump(path); !errors.Is(err, frame.ErrCorrupt) {
			t.Fatalf("%d of %d bytes: got %v, want frame.ErrCorrupt", len(in), len(b), err)
		}
	}
}

// TestFlightDumpRejectsCorruption: damage anywhere in the frame — length
// prefix, hello, JSON — is corruption; an intact frame of another Version or
// magic, or a dump in the layout before dumps became frames ("DPFR", u8
// version 1, u32 length, JSON, CRC), is a version error.
func TestFlightDumpRejectsCorruption(t *testing.T) {
	path := writeDump(t, t.TempDir())
	orig, _ := os.ReadFile(path)
	load := func(b []byte) error {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFlightDump(path)
		return err
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), orig...)
		b[i] ^= 0x40
		return b
	}
	// reseal rewrites the hello behind the length prefix and kind byte and
	// seals the frame again, CRC and all.
	reseal := func(hello []byte) []byte {
		body := orig[4+1+4+2 : len(orig)-8]
		return frame.Seal(append(append(frame.Begin(nil, frame.KindHello), hello...), body...))
	}
	version := func(v uint16) []byte {
		h := frame.Hello(nil, flightMagic)
		binary.LittleEndian.PutUint16(h[4:], v)
		return reseal(h)
	}
	body := orig[4+1+4+2 : len(orig)-8]
	preFrame := binary.LittleEndian.AppendUint32(append([]byte(flightMagic), 1), uint32(len(body)))
	preFrame = append(append(preFrame, body...), make([]byte, 8)...)
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"length prefix", flip(0), frame.ErrCorrupt},
		{"magic byte", flip(5), frame.ErrCorrupt},
		{"version byte", flip(9), frame.ErrCorrupt},
		{"body byte", flip(len(orig) / 2), frame.ErrCorrupt},
		{"other version", version(frame.Version + 1), frame.ErrHello},
		{"version 2", version(2), frame.ErrHello},
		{"other magic", reseal(frame.Hello(nil, "DPCK")), frame.ErrHello},
		{"pre-frame layout", preFrame, frame.ErrHello},
	} {
		if err := load(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// The untouched original still loads — the checks reject damage, not the
	// format.
	if err := load(orig); err != nil {
		t.Fatalf("pristine dump rejected: %v", err)
	}
}

// TestFlightDumpLoadsWhatDumpWrites: the loader's canonical-JSON check must
// accept every dump Dump writes, including strings that JSON escapes — HTML
// characters, line separators, and bytes that are not UTF-8.
func TestFlightDumpLoadsWhatDumpWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight-0.dpfr")
	for _, note := range []string{"plain", "<a & b>", "line\u2028sep", "bad \xff byte", `literal \ufffd`} {
		f := testRecorder(path)
		f.Note(note)
		f.Record(4, FlightEvent{TS: 1, Kind: "fault", Note: note})
		if err := f.Persist(note); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFlightDump(path); err != nil {
			t.Errorf("note %q: %v", note, err)
		}
	}
}

// FuzzLoadFlightDump runs the dump decoder over arbitrary file contents: it
// must never panic, and it must accept exactly what Dump writes — anything it
// accepts re-encodes to the same bytes.
func FuzzLoadFlightDump(f *testing.F) {
	dir := f.TempDir()
	orig, err := os.ReadFile(writeDump(f, dir))
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := encodeFlightDump(&FlightDump{})
	f.Add(orig)
	f.Add(empty)
	f.Add(orig[:len(orig)-1])
	f.Add([]byte("DPFRgarbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := decodeFlightDump(b)
		if err != nil {
			if !errors.Is(err, frame.ErrCorrupt) && !errors.Is(err, frame.ErrHello) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if re, err := encodeFlightDump(d); err != nil || !bytes.Equal(re, b) {
			t.Fatalf("accepted %q, which re-encodes as %q (%v)", b, re, err)
		}
	})
}

// TestLoadFlightDirPartial pins the postmortem contract: corrupt dumps are
// reported but do not block the readable ones.
func TestLoadFlightDirPartial(t *testing.T) {
	dir := t.TempDir()
	writeDump(t, dir) // flight-0.dpfr, healthy
	if err := os.WriteFile(filepath.Join(dir, "flight-1.dpfr"), []byte("DPFRgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	dumps, errs := LoadFlightDir(dir)
	if len(dumps) != 1 || dumps[0].Reason != "seed" {
		t.Fatalf("loaded %d dumps, want the 1 healthy one", len(dumps))
	}
	if len(errs) != 1 {
		t.Fatalf("got %d errors, want 1 for the corrupt file", len(errs))
	}
}

// TestFlightPersistAtomic pins the tmp+rename discipline: a Persist over an
// existing dump leaves no stray temp files and the file stays loadable.
func TestFlightPersistAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight-0.dpfr")
	f := testRecorder(path)
	for i := 0; i < 5; i++ {
		f.Record(4, FlightEvent{TS: int64(i), Kind: "tick"})
		if err := f.Persist("again"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadFlightDump(path); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("%d files left in dump dir, want only the dump", len(ents))
	}
}
