package experiments

import "declpat/internal/am"

// statColumns maps the substrate column names used across the suite's tables
// to counter-snapshot fields, so a column name means the same counter in
// every table and a counter rename breaks loudly in exactly one place.
// ("accepted" is E6's name for the sends that survive the cache; same
// counter as "messages".)
var statColumns = map[string]func(am.Snapshot) int64{
	"messages":       func(s am.Snapshot) int64 { return s.MsgsSent },
	"accepted":       func(s am.Snapshot) int64 { return s.MsgsSent },
	"handlers":       func(s am.Snapshot) int64 { return s.HandlersRun },
	"envelopes":      func(s am.Snapshot) int64 { return s.Envelopes },
	"bytes":          func(s am.Snapshot) int64 { return s.BytesSent },
	"ctrl-msgs":      func(s am.Snapshot) int64 { return s.CtrlMsgs },
	"td-waves":       func(s am.Snapshot) int64 { return s.TDWaves },
	"acks":           func(s am.Snapshot) int64 { return s.AckMsgs },
	"dropped":        func(s am.Snapshot) int64 { return s.EnvelopesDropped },
	"retransmits":    func(s am.Snapshot) int64 { return s.Retransmits },
	"dup-suppressed": func(s am.Snapshot) int64 { return s.DupsSuppressed },
}

// statCells returns one table cell per named substrate column, all read from
// a single counter snapshot of u.
func statCells(u *am.Universe, cols ...string) []any {
	s := u.Stats.Snapshot()
	out := make([]any, len(cols))
	for i, c := range cols {
		f, ok := statColumns[c]
		if !ok {
			panic("experiments: unknown substrate column " + c)
		}
		out[i] = f(s)
	}
	return out
}

// onOff labels a toggle's rows.
var onOff = map[bool]string{false: "off", true: "on"}

// row concatenates leading experiment-specific cells, substrate cells, and
// trailing cells into one table row for Table.Add.
func row(lead []any, stats []any, tail ...any) []any {
	out := make([]any, 0, len(lead)+len(stats)+len(tail))
	out = append(out, lead...)
	out = append(out, stats...)
	return append(out, tail...)
}
