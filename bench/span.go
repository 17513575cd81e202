package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (nothing inside the program is instrumented). Spans of one solve,
// query or request share Op; Parent is the ID of the enclosing span, -1 for
// a root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh identifier shared by the spans of one operation.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span now and returns its ID (-1 untraced).
func (t *tracer) begin(name string, op int64, parent int) int {
	return t.beginAt(name, op, parent, time.Now())
}

// beginAt opens a span at a stated instant: an open-loop operation starts at
// its due time, which is before the generator got round to sending it.
func (t *tracer) beginAt(name string, op int64, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, Start: at.Sub(t.t0).Nanoseconds(), End: -1})
	return id
}

func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

func (t *tracer) endAt(id int, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = at.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// call wraps one call into a layer in a span.
func (t *tracer) call(name string, op int64, parent int, f func()) {
	id := t.begin(name, op, parent)
	f()
	t.end(id)
}

// closed returns the spans that were ended (a span left open by a failed
// operation carries no duration and is dropped from the arithmetic).
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time keyed by span ID: its duration
// minus the part of its interval that its child spans cover. Overlapping
// children (concurrent calls under one parent) are merged first, and a child
// is clipped to its parent, so self time is never negative and the self times
// of a tree sum to its root's duration.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// ledgerRow is one line of the per-layer ledger: the summed self time of every
// span with this name.
type ledgerRow struct {
	Name  string
	Calls int
	Self  time.Duration
}

// ledger is the traced run's account of where the time of the benchmark's
// operations went. Total is the summed duration of the root spans; Rows hold
// the self time of every span that is a leaf or a non-root; Residual is the
// self time of roots that have children — the part of an operation that no
// span around a layer call covers (generator lateness, goroutine hand-off,
// glue). Rows plus Residual equal Total.
type ledger struct {
	Total    time.Duration
	Rows     []ledgerRow
	Residual time.Duration
}

func buildLedger(spans []span) ledger {
	self := selfTimes(spans)
	hasKids := map[int]bool{}
	for _, s := range spans {
		if s.Parent >= 0 {
			hasKids[s.Parent] = true
		}
	}
	var l ledger
	rows := map[string]*ledgerRow{}
	for _, s := range spans {
		if s.Parent < 0 {
			l.Total += time.Duration(s.End - s.Start)
			if hasKids[s.ID] {
				l.Residual += time.Duration(self[s.ID])
				continue
			}
		}
		r := rows[s.Name]
		if r == nil {
			r = &ledgerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Calls++
		r.Self += time.Duration(self[s.ID])
	}
	for _, r := range rows {
		l.Rows = append(l.Rows, *r)
	}
	sort.Slice(l.Rows, func(i, j int) bool { return l.Rows[i].Self > l.Rows[j].Self })
	return l
}

// residualShare is 1 − Σ self / total.
func (l ledger) residualShare() float64 { return ratio(float64(l.Residual), float64(l.Total)) }

func (l ledger) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "ledger %s: %d root-span ms accounted by the spans around layer calls\n", workload, l.Total.Milliseconds())
	for _, r := range l.Rows {
		fmt.Fprintf(w, "  %-22s calls=%-6d self=%10.3f ms  %5.1f %%\n", r.Name, r.Calls, float64(r.Self)/1e6, 100*ratio(float64(r.Self), float64(l.Total)))
	}
	fmt.Fprintf(w, "  %-22s              self=%10.3f ms  %5.1f %%  (root time no span covers)\n", "residual", float64(l.Residual)/1e6, 100*l.residualShare())
}
