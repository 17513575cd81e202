package obs

import (
	"fmt"
	"sort"
	"time"

	"declpat/internal/harness"
)

// Causal message lineage.
//
// The substrate stamps every send with the lineage id of the handler
// invocation that produced it (sends from an epoch body carry a synthetic
// per-(epoch, rank) root id), and records one "handler" span per handler
// invocation carrying its own id and its parent's. Because every handler
// invocation is triggered by exactly one message, the parent links form a
// forest per epoch: roots are the epoch bodies' send sites, interior nodes
// are handler invocations, and an edge parent→child means "the message that
// started child was sent while parent was running". This file rebuilds that
// forest offline from an exported trace and derives the analyses the flat
// event stream cannot answer: which handler→send→handler chain bounded the
// epoch (the realized critical path), how deep the causal chains run, and
// where each rank's time inside the epoch went (busy vs slack).

// Lineage id scheme. Ids are uint64, 0 means "none". Root ids (sends issued
// by an epoch body rather than a handler) set bit 62 and encode the epoch
// sequence and sending rank; handler ids encode the handling rank and a
// per-rank monotonic invocation counter. The split keeps ids unique across
// ranks without any cross-rank coordination — exactly the property a real
// distributed deployment needs — and lets the reconstructor resolve a root
// parent without ever having seen a root event.
const (
	lineageRootBit  = uint64(1) << 62
	lineageRankBits = 20 // root ids: ranks up to 2^20
	lineageSeqBits  = 40 // handler ids: 2^40 invocations per rank
)

// RootLineageID returns the lineage id stamped on sends issued directly by
// an epoch body (the chain roots) during the given epoch on the given rank.
func RootLineageID(epoch int64, rank int) uint64 {
	return lineageRootBit | uint64(epoch)<<lineageRankBits | uint64(rank)
}

// HandlerLineageID returns the lineage id of the seq-th handler invocation
// on rank (seq must be >= 1 so that no handler id collides with 0 = none).
func HandlerLineageID(rank int, seq uint64) uint64 {
	return uint64(rank)<<lineageSeqBits | seq
}

// IsRootLineageID reports whether id identifies an epoch-body root.
func IsRootLineageID(id uint64) bool { return id&lineageRootBit != 0 }

// RootLineageEpoch extracts the epoch sequence from a root lineage id.
func RootLineageEpoch(id uint64) int64 {
	return int64((id &^ lineageRootBit) >> lineageRankBits)
}

// RootLineageRank extracts the sending rank from a root lineage id.
func RootLineageRank(id uint64) int {
	return int(id & (1<<lineageRankBits - 1))
}

// HandlerLineageRank extracts the handling rank from a handler lineage id.
func HandlerLineageRank(id uint64) int { return int(id >> lineageSeqBits) }

// LineageNode is one handler invocation in the reconstructed causal forest.
type LineageNode struct {
	ID     uint64
	Parent uint64 // handler id, root id, or 0 (never stamped)
	Rank   int
	Epoch  int64 // committed epoch the invocation ran in, -1 if unattributable
	Start  int64 // monotonic ns (handler entry)
	End    int64 // monotonic ns (handler return)
	Type   string
	Depth  int // root = depth 0, first handler = 1; orphans restart at 1
	Orphan bool
}

// Exec returns the handler execution time in ns.
func (n *LineageNode) Exec() int64 { return n.End - n.Start }

// rankEpoch is one rank's span inside one epoch.
type rankEpoch struct {
	begin, end int64
}

// EpochLineage groups the causal forest of one committed epoch.
type EpochLineage struct {
	Epoch int64
	Nodes []*LineageNode // sorted by Start
	// Begin / End bracket the epoch across ranks (earliest begin, latest
	// end). RankSpan holds each participating rank's own span.
	Begin, End int64
	RankSpan   map[int]rankEpoch
}

// Lineage is the reconstructed causal forest of a whole trace.
type Lineage struct {
	ByID    map[uint64]*LineageNode
	Epochs  []*EpochLineage // sorted by epoch sequence
	Orphans int             // handler events whose parent was overwritten by the ring
}

// Epoch returns the lineage of one epoch, or nil.
func (l *Lineage) Epoch(seq int64) *EpochLineage {
	for _, e := range l.Epochs {
		if e.Epoch == seq {
			return e
		}
	}
	return nil
}

// Handlers returns the total number of handler invocations reconstructed.
func (l *Lineage) Handlers() int { return len(l.ByID) }

// Connected reports whether every non-root handler event resolved its
// parent (no ring overwrite broke a chain).
func (l *Lineage) Connected() bool { return l.Orphans == 0 }

// BuildLineage reconstructs the causal forest from an exported trace. It
// needs "handler" records (tracing on, lineage not switched off); traces
// without them yield an empty Lineage. Handler events that fall outside any
// committed epoch span (e.g. an epoch a fault aborted before its epoch-end
// was recorded, or a mid-run capture) are attributed to epoch -1
// and excluded from the per-epoch analyses.
func BuildLineage(meta Meta, recs []Record) *Lineage {
	idx := epochIndex(meta, recs)
	l := &Lineage{ByID: map[uint64]*LineageNode{}}
	epochs := map[int64]*EpochLineage{}
	getEpoch := func(seq int64) *EpochLineage {
		e := epochs[seq]
		if e == nil {
			e = &EpochLineage{Epoch: seq, RankSpan: map[int]rankEpoch{}}
			epochs[seq] = e
		}
		return e
	}
	for _, r := range recs {
		switch r.Kind {
		case "epoch":
			e := getEpoch(r.Arg)
			span := rankEpoch{begin: r.TS, end: r.TS + r.Dur}
			e.RankSpan[r.Rank] = span
			if e.Begin == 0 || span.begin < e.Begin {
				e.Begin = span.begin
			}
			if span.end > e.End {
				e.End = span.end
			}
		case "handler":
			n := &LineageNode{
				ID: r.ID, Parent: r.Parent, Rank: r.Rank,
				Start: r.TS, End: r.TS + r.Dur, Type: r.Type,
				Epoch: epochOf(idx, r.Rank, r.TS),
			}
			l.ByID[n.ID] = n
		}
	}
	for _, n := range l.ByID {
		if n.Epoch >= 0 {
			getEpoch(n.Epoch).Nodes = append(getEpoch(n.Epoch).Nodes, n)
		}
	}
	// Depth: walk each unresolved chain up to a root (or an orphaned link)
	// iteratively — chains can be long, recursion is off the table.
	var stack []*LineageNode
	for _, n := range l.ByID {
		cur := n
		for cur.Depth == 0 {
			if IsRootLineageID(cur.Parent) {
				cur.Depth = 1
				break
			}
			p := l.ByID[cur.Parent]
			if p == nil { // parent overwritten by the ring (or never stamped)
				cur.Depth = 1
				cur.Orphan = true
				l.Orphans++
				break
			}
			if p.Depth != 0 {
				cur.Depth = p.Depth + 1
				break
			}
			stack = append(stack, cur)
			cur = p
		}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c.Depth = l.ByID[c.Parent].Depth + 1
		}
	}
	for _, e := range epochs {
		sort.Slice(e.Nodes, func(i, j int) bool { return e.Nodes[i].Start < e.Nodes[j].Start })
		l.Epochs = append(l.Epochs, e)
	}
	sort.Slice(l.Epochs, func(i, j int) bool { return l.Epochs[i].Epoch < l.Epochs[j].Epoch })
	return l
}

// PathHop is one step of a critical path: the handler invocation, the time
// the triggering message spent between its producer's return and the
// handler's entry (coalescing-buffer residence + inbox queueing + simulated
// link delay), and the handler execution time.
type PathHop struct {
	Node *LineageNode
	Wait int64 // ns from parent finish (or root send availability) to Start
	Exec int64 // ns inside the handler
}

// CriticalPath is the realized critical chain of one epoch: the backwalk
// from the causally last handler invocation to its epoch-body root. Because
// each invocation has exactly one parent, the chain is unique — it is the
// dependency sequence that actually gated the epoch's quiescence.
type CriticalPath struct {
	Epoch    int64
	Root     uint64    // root lineage id the chain starts from
	RootRank int       // rank whose epoch body issued the first send
	Hops     []PathHop // root-first
	// SpanNs is the epoch duration (slowest rank); ExecNs/WaitNs decompose
	// the chain; TailNs is the quiescence tail after the last handler
	// returned (termination detection + final barriers).
	SpanNs, ExecNs, WaitNs, TailNs int64
	Broken                         bool // chain hit an orphaned link before a root
}

// Depth returns the chain length in handler invocations.
func (p *CriticalPath) Depth() int { return len(p.Hops) }

// CriticalPathOf computes the realized critical path of one epoch. Returns
// nil when the epoch has no handler invocations (an empty epoch's duration
// is pure protocol: barriers and termination detection).
func (l *Lineage) CriticalPathOf(e *EpochLineage) *CriticalPath {
	if len(e.Nodes) == 0 {
		return nil
	}
	sink := e.Nodes[0]
	for _, n := range e.Nodes {
		if n.End > sink.End {
			sink = n
		}
	}
	cp := &CriticalPath{Epoch: e.Epoch, SpanNs: e.End - e.Begin, TailNs: e.End - sink.End}
	for cur := sink; ; {
		hop := PathHop{Node: cur, Exec: cur.Exec()}
		var prevEnd int64
		done := false
		switch {
		case IsRootLineageID(cur.Parent):
			cp.Root = cur.Parent
			cp.RootRank = RootLineageRank(cur.Parent)
			// The root send became available no earlier than the sending
			// rank's epoch entry.
			prevEnd = e.Begin
			if span, ok := e.RankSpan[cp.RootRank]; ok {
				prevEnd = span.begin
			}
			done = true
		case cur.Orphan || l.ByID[cur.Parent] == nil:
			cp.Broken = true
			prevEnd = cur.Start
			done = true
		default:
			prevEnd = l.ByID[cur.Parent].Start // refined below to parent End
		}
		if !done {
			prevEnd = l.ByID[cur.Parent].End
		}
		if w := cur.Start - prevEnd; w > 0 {
			hop.Wait = w
		}
		cp.Hops = append(cp.Hops, hop)
		cp.ExecNs += hop.Exec
		cp.WaitNs += hop.Wait
		if done {
			break
		}
		cur = l.ByID[cur.Parent]
	}
	// Reverse into root-first order.
	for i, j := 0, len(cp.Hops)-1; i < j; i, j = i+1, j-1 {
		cp.Hops[i], cp.Hops[j] = cp.Hops[j], cp.Hops[i]
	}
	return cp
}

// CriticalPaths computes the per-epoch critical paths (epochs without
// handler work are skipped).
func (l *Lineage) CriticalPaths() []*CriticalPath {
	var out []*CriticalPath
	for _, e := range l.Epochs {
		if cp := l.CriticalPathOf(e); cp != nil {
			out = append(out, cp)
		}
	}
	return out
}

// CriticalPathTable renders one row per epoch: span, chain depth, the
// decomposition of the chain into handler execution and wait, the
// quiescence tail, and the share of the epoch's span the chain explains.
func CriticalPathTable(l *Lineage) *harness.Table {
	t := harness.NewTable("per-epoch critical path (realized handler→send→handler chain)",
		"epoch", "span", "handlers", "depth", "path-exec", "path-wait", "quiesce-tail", "path/span")
	for _, e := range l.Epochs {
		cp := l.CriticalPathOf(e)
		if cp == nil {
			t.Add(e.Epoch, time.Duration(e.End-e.Begin), 0, 0,
				time.Duration(0), time.Duration(0), time.Duration(e.End-e.Begin), "-")
			continue
		}
		share := "-"
		if cp.SpanNs > 0 {
			share = fmt.Sprintf("%.0f%%", 100*float64(cp.ExecNs+cp.WaitNs+cp.TailNs)/float64(cp.SpanNs))
		}
		depth := fmt.Sprintf("%d", cp.Depth())
		if cp.Broken {
			depth += "+" // chain truncated at an orphaned link
		}
		t.Add(cp.Epoch, time.Duration(cp.SpanNs), len(e.Nodes), depth,
			time.Duration(cp.ExecNs), time.Duration(cp.WaitNs), time.Duration(cp.TailNs), share)
	}
	return t
}

// ChainTable renders a critical path hop by hop, rank by rank: where each
// link of the chain ran, how long its message waited, and how long the
// handler took. maxHops > 0 elides the middle of longer chains.
func ChainTable(cp *CriticalPath, maxHops int) *harness.Table {
	t := harness.NewTable(
		fmt.Sprintf("critical path of epoch %d (root: rank %d epoch body)", cp.Epoch, cp.RootRank),
		"hop", "rank", "type", "wait", "exec", "finish@")
	base := int64(0)
	if len(cp.Hops) > 0 {
		base = cp.Hops[0].Node.Start - cp.Hops[0].Wait
	}
	show := func(i int) {
		h := cp.Hops[i]
		t.Add(i+1, h.Node.Rank, h.Node.Type,
			time.Duration(h.Wait), time.Duration(h.Exec), time.Duration(h.Node.End-base))
	}
	if maxHops <= 0 || len(cp.Hops) <= maxHops {
		for i := range cp.Hops {
			show(i)
		}
	} else {
		head := maxHops / 2
		tail := maxHops - head
		for i := 0; i < head; i++ {
			show(i)
		}
		t.Add("...", fmt.Sprintf("(%d hops elided)", len(cp.Hops)-maxHops), "", "", "", "")
		for i := len(cp.Hops) - tail; i < len(cp.Hops); i++ {
			show(i)
		}
	}
	t.Add("(tail)", "-", "quiescence", time.Duration(cp.TailNs), time.Duration(0),
		time.Duration(cp.SpanNs))
	return t
}

// ChainDepthTable renders the chain-depth histogram: how many handler
// invocations sit at each causal depth (depth 1 = triggered directly by an
// epoch-body send), aggregated across the trace's committed epochs.
func ChainDepthTable(l *Lineage) *harness.Table {
	depths := map[int]int{}
	maxDepth := 0
	for _, e := range l.Epochs {
		for _, n := range e.Nodes {
			depths[n.Depth]++
			if n.Depth > maxDepth {
				maxDepth = n.Depth
			}
		}
	}
	t := harness.NewTable("chain-depth histogram (handler invocations per causal depth)",
		"depth", "handlers")
	for d := 1; d <= maxDepth; d++ {
		if depths[d] > 0 {
			t.Add(d, depths[d])
		}
	}
	return t
}

// RankSlackTable attributes each rank's time inside epochs: handler
// execution (busy), time on critical paths, and slack (span − busy — queue
// idling, detector spinning, barrier waits). Aggregated over the trace's
// committed epochs.
func RankSlackTable(l *Lineage) *harness.Table {
	type acc struct {
		span, busy, critical int64
		handlers             int
	}
	byRank := map[int]*acc{}
	get := func(rank int) *acc {
		a := byRank[rank]
		if a == nil {
			a = &acc{}
			byRank[rank] = a
		}
		return a
	}
	for _, e := range l.Epochs {
		for rank, span := range e.RankSpan {
			get(rank).span += span.end - span.begin
		}
		for _, n := range e.Nodes {
			a := get(n.Rank)
			a.busy += n.Exec()
			a.handlers++
		}
		if cp := l.CriticalPathOf(e); cp != nil {
			for _, h := range cp.Hops {
				get(h.Node.Rank).critical += h.Exec
			}
		}
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	t := harness.NewTable("per-rank slack attribution (all committed epochs)",
		"rank", "handlers", "epoch-span", "busy", "on-crit-path", "slack", "busy%")
	for _, r := range ranks {
		a := byRank[r]
		busyPct := "-"
		if a.span > 0 {
			busyPct = fmt.Sprintf("%.1f%%", 100*float64(a.busy)/float64(a.span))
		}
		t.Add(r, a.handlers, time.Duration(a.span), time.Duration(a.busy),
			time.Duration(a.critical), time.Duration(a.span-a.busy), busyPct)
	}
	return t
}
