package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Meta is the header line of a JSONL trace export: universe shape and the
// message-type name table needed to resolve Record.Type at analysis time.
type Meta struct {
	Kind    string   `json:"kind"` // always "meta"
	Label   string   `json:"label,omitempty"`
	Ranks   int      `json:"ranks"`
	Types   []string `json:"types,omitempty"`
	Dropped int64    `json:"dropped,omitempty"` // ring-overwritten events
	// ClockErrNS bounds a fleet timeline's cross-process alignment error:
	// the largest error of any worker's estimate of its offset onto the
	// launcher's timebase (zero in single-process exports).
	ClockErrNS int64 `json:"clock_err_ns,omitempty"`
}

// Banner is the one-line summary a reader prints above its tables: label,
// record, rank and type counts, the cross-process alignment bound when there
// is one, and how many events the ring overwrote when it did.
func (m Meta) Banner(records int) string {
	label := m.Label
	if label == "" {
		label = "(unlabeled)"
	}
	s := fmt.Sprintf("trace: %s — %d records, %d ranks, %d message types", label, records, m.Ranks, len(m.Types))
	if m.ClockErrNS > 0 {
		s += fmt.Sprintf(" (cross-process alignment ±%.1fµs)", float64(m.ClockErrNS)/1e3)
	}
	if m.Dropped > 0 {
		s += fmt.Sprintf(" (%d events overwritten by the ring)", m.Dropped)
	}
	return s
}

// Record is one exported trace event. TS and Dur are monotonic nanoseconds
// (Dur 0 for instants). Span records ("epoch", "deliver") carry a duration;
// everything else is a point event. Arg/Arg2 keep the substrate's raw event
// arguments; Type is the resolved message-type name where Arg is a type id.
type Record struct {
	Kind string `json:"kind"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Rank int    `json:"rank"`
	Arg  int64  `json:"arg,omitempty"`
	Arg2 int64  `json:"arg2,omitempty"`
	Type string `json:"type,omitempty"`
	// Q is the query context the event was recorded under (0 outside any
	// query epoch). The analyzers group interleaved-query timelines by it.
	Q int64 `json:"q,omitempty"`
	// Causal lineage ("handler" records only): ID identifies the handler
	// invocation, Parent the invocation (or epoch-body root) whose send
	// triggered it. See lineage.go for the id scheme.
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// W is the worker-process index in a merged fleet trace (0 in
	// single-process exports; worker 0's records also carry 0 — the meta
	// header and rank ranges disambiguate).
	W int `json:"w,omitempty"`
}

// WriteJSONL writes the meta header followed by one record per line.
func WriteJSONL(w io.Writer, meta Meta, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	meta.Kind = "meta"
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace export. The meta header is optional (its
// absence yields a zero Meta with Ranks inferred from the records).
func ReadJSONL(r io.Reader) (Meta, []Record, error) {
	var meta Meta
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(b, &probe); err != nil {
			return meta, nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		if probe.Kind == "meta" {
			if err := json.Unmarshal(b, &meta); err != nil {
				return meta, nil, fmt.Errorf("obs: line %d: %w", line, err)
			}
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return meta, nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return meta, nil, err
	}
	if meta.Ranks == 0 {
		for _, rec := range recs {
			if rec.Rank+1 > meta.Ranks {
				meta.Ranks = rec.Rank + 1
			}
		}
	}
	return meta, recs, nil
}

// ChromeEvent is one entry of the Chrome trace-event format (the JSON array
// format understood by Perfetto and chrome://tracing). Timestamps and
// durations are microseconds.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`  // instant scope ("t" = thread)
	ID   uint64         `json:"id,omitempty"` // flow-event binding id ("s"/"f")
	BP   string         `json:"bp,omitempty"` // flow binding point ("e" = enclosing slice)
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level JSON object of a Chrome trace export.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// ToChrome converts a record stream into a Chrome trace: one process row per
// worker (single-process exports collapse to one), one thread row per rank.
// Records with a duration become complete ("X") events; the rest become
// thread-scoped instants ("i"). Lineage-stamped "handler" records
// additionally emit flow-event pairs ("s" on the producing invocation's
// slice, "f" bound to the consuming one), which Perfetto renders as causal
// arrows between ranks — and, in a merged fleet trace, across process rows.
func ToChrome(meta Meta, recs []Record) ChromeTrace {
	evs := make([]ChromeEvent, 0, len(recs)+meta.Ranks+1)
	// Handler index for flow-arrow sources (the producing invocation's
	// slice). Root parents (epoch-body sends) have no slice to anchor on.
	// Lineage ids are globally unique across workers (rank ranges are
	// disjoint), so one index serves the merged fleet trace too.
	handlers := map[uint64]Record{}
	fleet := false
	for _, rec := range recs {
		if rec.Kind == "handler" && rec.ID != 0 {
			handlers[rec.ID] = rec
		}
		if rec.W != 0 {
			fleet = true
		}
	}
	procName := "declpat substrate"
	if meta.Label != "" {
		procName += " — " + meta.Label
	}
	if !fleet {
		// Single process: one row named for the universe, threads for every
		// rank in the declared range (records or not).
		evs = append(evs, ChromeEvent{
			Name: "process_name", Ph: "M", PID: 1, TID: 0,
			Args: map[string]any{"name": procName},
		})
		for r := 0; r < meta.Ranks; r++ {
			evs = append(evs, ChromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: r,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
			})
		}
	} else {
		// Fleet: one process row per observed worker (pid = W+1 so worker 0
		// keeps pid 1), thread rows for every observed (worker, rank) pair.
		seenW := map[int]bool{}
		seenT := map[[2]int]bool{}
		for _, rec := range recs {
			if !seenW[rec.W] {
				seenW[rec.W] = true
				evs = append(evs, ChromeEvent{
					Name: "process_name", Ph: "M", PID: rec.W + 1, TID: 0,
					Args: map[string]any{"name": fmt.Sprintf("%s — worker %d", procName, rec.W)},
				})
			}
			key := [2]int{rec.W, rec.Rank}
			if !seenT[key] {
				seenT[key] = true
				evs = append(evs, ChromeEvent{
					Name: "thread_name", Ph: "M", PID: rec.W + 1, TID: rec.Rank,
					Args: map[string]any{"name": fmt.Sprintf("rank %d", rec.Rank)},
				})
			}
		}
	}
	for _, rec := range recs {
		name := rec.Kind
		if rec.Type != "" {
			name += ":" + rec.Type
		}
		pid := rec.W + 1
		ev := ChromeEvent{
			Name: name,
			Cat:  rec.Kind,
			TS:   float64(rec.TS) / 1e3,
			PID:  pid,
			TID:  rec.Rank,
			Args: map[string]any{"arg": rec.Arg, "arg2": rec.Arg2},
		}
		if rec.Q != 0 {
			ev.Args["q"] = rec.Q
		}
		if rec.Dur > 0 || rec.Kind == "handler" {
			ev.Ph = "X"
			ev.Dur = float64(rec.Dur) / 1e3
		} else {
			ev.Ph = "i"
			ev.S = "t"
		}
		if rec.Kind == "handler" && rec.ID != 0 {
			ev.Args["id"] = rec.ID
			ev.Args["parent"] = rec.Parent
			evs = append(evs, ev)
			if p, ok := handlers[rec.Parent]; ok {
				// Bind the arrow just inside the producing slice's end (an
				// exact end timestamp could fall outside it) and at the
				// consuming slice's start; bp "e" attaches "f" to the
				// enclosing slice. The binding id is the consumer's lineage
				// id — unique, since each invocation has one parent.
				src := float64(p.TS+p.Dur) / 1e3
				if p.Dur > 0 {
					src -= 0.0005
				}
				evs = append(evs,
					ChromeEvent{Name: "lineage", Cat: "lineage", Ph: "s",
						ID: rec.ID, TS: src, PID: p.W + 1, TID: p.Rank},
					ChromeEvent{Name: "lineage", Cat: "lineage", Ph: "f", BP: "e",
						ID: rec.ID, TS: float64(rec.TS) / 1e3, PID: pid, TID: rec.Rank})
			}
			continue
		}
		evs = append(evs, ev)
	}
	return ChromeTrace{TraceEvents: evs, DisplayTimeUnit: "ns"}
}

// WriteChromeTrace converts and writes a record stream as Chrome trace JSON.
func WriteChromeTrace(w io.Writer, meta Meta, recs []Record) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ToChrome(meta, recs))
}
