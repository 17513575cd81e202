package am

import (
	"math"
	"strings"
	"testing"

	"declpat/internal/obs"
)

// hop is a chain message: the handler forwards it to the next rank until the
// TTL runs out, producing causal chains of known depth.
type hop struct{ TTL int64 }

// chainUniverse registers the forwarding type on a fresh universe.
func chainUniverse(cfg config) (*Universe, *MsgType[hop]) {
	u := newUniverse(cfg)
	var mt *MsgType[hop]
	mt = Register(u, "hop", func(r *Rank, m hop) {
		if m.TTL > 0 {
			mt.SendTo(r, (r.ID()+1)%r.N(), hop{TTL: m.TTL - 1})
		}
	})
	return u, mt
}

// runChains drives epochs×chains chains of depth ttl+1 per rank.
func runChains(t *testing.T, u *Universe, mt *MsgType[hop], epochs, chains int, ttl int64) {
	t.Helper()
	if err := u.Run(func(r *Rank) {
		for e := 0; e < epochs; e++ {
			r.Epoch(func(ep *Epoch) {
				for c := 0; c < chains; c++ {
					mt.SendTo(r, (r.ID()+1)%r.N(), hop{TTL: ttl})
				}
				ep.Flush()
			})
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestLineageConnectedChains is the tentpole invariant: on a traced run with
// concurrent handler threads, every handler event carries a resolvable parent
// (a connected causal forest), chain depths match the workload's TTL, and the
// reconstructed critical path of every epoch starts at an epoch-body root and
// walks parent links hop by hop.
func TestLineageConnectedChains(t *testing.T) {
	const ttl = 6
	u, mt := chainUniverse(config{Ranks: 4, ThreadsPerRank: 2, CoalesceSize: 4, TraceCapacity: 1 << 16})
	runChains(t, u, mt, 3, 4, ttl)

	meta, recs := u.ExportTrace("chains")
	lin := obs.BuildLineage(meta, recs)
	if lin.Handlers() == 0 {
		t.Fatal("no handler events in traced run")
	}
	if !lin.Connected() {
		t.Fatalf("causal forest has %d orphans (ring did not wrap: dropped=%d)",
			lin.Orphans, u.TraceDropped())
	}
	want := int(u.Stats.Snapshot().HandlersRun)
	if lin.Handlers() != want {
		t.Fatalf("reconstructed %d handler invocations, stats say %d", lin.Handlers(), want)
	}
	maxDepth := 0
	for _, e := range lin.Epochs {
		for _, n := range e.Nodes {
			if n.Depth > maxDepth {
				maxDepth = n.Depth
			}
		}
	}
	if maxDepth != ttl+1 {
		t.Fatalf("max chain depth %d, want %d", maxDepth, ttl+1)
	}
	if len(lin.Epochs) != 3 {
		t.Fatalf("epochs reconstructed = %d, want 3", len(lin.Epochs))
	}
	for _, e := range lin.Epochs {
		cp := lin.CriticalPathOf(e)
		if cp == nil || len(cp.Hops) == 0 {
			t.Fatalf("epoch %d: empty critical path", e.Epoch)
		}
		if cp.Broken {
			t.Fatalf("epoch %d: critical path broken", e.Epoch)
		}
		if !obs.IsRootLineageID(cp.Root) {
			t.Fatalf("epoch %d: path does not start at a root (root id %#x)", e.Epoch, cp.Root)
		}
		if got := obs.RootLineageEpoch(cp.Root); got != e.Epoch {
			t.Fatalf("epoch %d: root id encodes epoch %d", e.Epoch, got)
		}
		if cp.Hops[0].Node.Parent != cp.Root {
			t.Fatalf("epoch %d: first hop's parent %#x != root %#x", e.Epoch, cp.Hops[0].Node.Parent, cp.Root)
		}
		for i := 1; i < len(cp.Hops); i++ {
			if cp.Hops[i].Node.Parent != cp.Hops[i-1].Node.ID {
				t.Fatalf("epoch %d: hop %d parent %#x != previous hop id %#x",
					e.Epoch, i, cp.Hops[i].Node.Parent, cp.Hops[i-1].Node.ID)
			}
			if cp.Hops[i].Wait < 0 {
				t.Fatalf("epoch %d: negative wait at hop %d", e.Epoch, i)
			}
		}
		// The path ends in the epoch's final quiescence: the sink's finish
		// plus the quiesce tail lands exactly on the epoch's end.
		sink := cp.Hops[len(cp.Hops)-1].Node
		if sink.End+cp.TailNs != e.End {
			t.Fatalf("epoch %d: sink end %d + tail %d != epoch end %d",
				e.Epoch, sink.End, cp.TailNs, e.End)
		}
		if cp.TailNs < 0 {
			t.Fatalf("epoch %d: negative quiesce tail", e.Epoch)
		}
	}
	// The rendered tables must not be empty shells.
	if tb := obs.CriticalPathTable(lin); tb.Rows() != 3 {
		t.Fatalf("critical-path table rows = %d, want 3", tb.Rows())
	}
	if tb := obs.ChainDepthTable(lin); tb.Rows() != ttl+1 {
		t.Fatalf("chain-depth table rows = %d, want %d", tb.Rows(), ttl+1)
	}
}

// TestLineageSurvivesRetransmit runs the chain workload over the chaos
// transport: drops, duplicates, and delays force retransmissions, and the
// lineage riding the outstanding table must come through intact.
func TestLineageSurvivesRetransmit(t *testing.T) {
	u, mt := chainUniverse(config{
		Ranks: 3, ThreadsPerRank: 0, CoalesceSize: 2, TraceCapacity: 1 << 16,
		FaultPlan: &FaultPlan{Seed: 7, Drop: 0.15, Dup: 0.1, Delay: 0.1},
	})
	runChains(t, u, mt, 2, 3, 4)
	if u.Stats.Snapshot().Retransmits == 0 {
		t.Fatal("fault plan injected no retransmits; test is vacuous")
	}
	meta, recs := u.ExportTrace("chaos-chains")
	lin := obs.BuildLineage(meta, recs)
	if !lin.Connected() {
		t.Fatalf("lineage broken under retransmission: %d orphans", lin.Orphans)
	}
	if want := int(u.Stats.Snapshot().HandlersRun); lin.Handlers() != want {
		t.Fatalf("reconstructed %d handlers, stats say %d (dups must not mint ids)", lin.Handlers(), want)
	}
}

// TestLineageRecoveryReplay crashes a rank mid-epoch with recovery enabled:
// the committed replay's lineage must be connected, and its critical path
// must land in the replay attempt, not the aborted one.
func TestLineageRecoveryReplay(t *testing.T) {
	u, mt := chainUniverse(config{
		Ranks: 3, ThreadsPerRank: 0, CoalesceSize: 2, TraceCapacity: 1 << 16,
		Recovery: true,
		FaultPlan: &FaultPlan{
			Seed:    11,
			Crashes: []Crash{{Rank: 1, Epoch: 1, AfterHandled: 3}},
		},
	})
	runChains(t, u, mt, 3, 3, 4)
	if u.Stats.Snapshot().Recoveries == 0 {
		t.Fatal("no recovery happened; test is vacuous")
	}
	meta, recs := u.ExportTrace("recovery-chains")
	lin := obs.BuildLineage(meta, recs)
	if !lin.Connected() {
		t.Fatalf("lineage broken across recovery replay: %d orphans", lin.Orphans)
	}
	for _, e := range lin.Epochs {
		cp := lin.CriticalPathOf(e)
		if cp == nil || cp.Broken || !obs.IsRootLineageID(cp.Root) {
			t.Fatalf("epoch %d: bad critical path after recovery: %+v", e.Epoch, cp)
		}
	}
}

// TestLineageOff checks the off switch: a traced run with LineageOff records
// no handler events and stamps no ids.
func TestLineageOff(t *testing.T) {
	u, mt := chainUniverse(config{
		Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4,
		TraceCapacity: 1 << 14, Lineage: LineageOff,
	})
	runChains(t, u, mt, 1, 4, 3)
	_, recs := u.ExportTrace("off")
	for _, rec := range recs {
		if rec.Kind == "handler" {
			t.Fatalf("LineageOff run exported a handler record: %+v", rec)
		}
	}
	meta, recs := u.ExportTrace("off")
	if lin := obs.BuildLineage(meta, recs); lin.Handlers() != 0 {
		t.Fatalf("BuildLineage found %d handlers in a LineageOff trace", lin.Handlers())
	}
}

// TestTraceRingSize covers the memory control: WithTraceCapacity splits
// evenly into per-rank rings that bound retention exactly, and a capacity
// whose per-rank ring exceeds maxTraceRing fails loudly at construction
// instead of attempting the allocation.
func TestTraceRingSize(t *testing.T) {
	const per = 64
	u, mt := chainUniverse(config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 1, TraceCapacity: 2 * per})
	runChains(t, u, mt, 2, 40, 3)
	evs := u.Trace()
	if len(evs) == 0 {
		t.Fatal("TraceCapacity did not enable tracing")
	}
	if len(evs) > 2*per {
		t.Fatalf("retained %d events, ring bound is %d", len(evs), 2*per)
	}
	if u.TraceDropped() == 0 {
		t.Fatal("workload did not overflow the ring; bound untested")
	}

	for _, bad := range []int{1 << 43, math.MaxInt} {
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("WithTraceCapacity(%d) did not panic", bad)
				}
				if msg, ok := p.(string); !ok || !strings.Contains(msg, "WithTraceCapacity") {
					t.Fatalf("WithTraceCapacity(%d): unclear panic %v", bad, p)
				}
			}()
			New(1, WithTraceCapacity(bad))
		}()
	}
}

// TestLineageRingOverflow is the satellite's wraparound coverage: when
// lineage events overwrite the ring, ExportTrace stays ordered (timestamps
// non-decreasing, spans well-formed) and the reconstructor degrades to
// reporting orphans instead of failing.
func TestLineageRingOverflow(t *testing.T) {
	u, mt := chainUniverse(config{Ranks: 4, ThreadsPerRank: 2, CoalesceSize: 2, TraceCapacity: 4 * 48})
	runChains(t, u, mt, 3, 16, 5)
	if u.TraceDropped() == 0 {
		t.Fatal("ring did not wrap; overflow untested")
	}
	meta, recs := u.ExportTrace("overflow")
	// Span records are start-anchored (TS = event end − Dur) while the merge
	// orders by event end, so the export's ordering invariant is on end
	// times: rec.TS + rec.Dur never goes backwards.
	last := int64(-1)
	for i, rec := range recs {
		if end := rec.TS + rec.Dur; end < last {
			t.Fatalf("record %d out of order: end %d after %d", i, end, last)
		} else {
			last = end
		}
		if rec.Dur < 0 {
			t.Fatalf("record %d has negative duration: %+v", i, rec)
		}
	}
	lin := obs.BuildLineage(meta, recs)
	for _, e := range lin.Epochs {
		if cp := lin.CriticalPathOf(e); cp != nil {
			// A chain may be truncated at an overwritten parent, but the
			// walk itself must stay sound.
			for i := 1; i < len(cp.Hops); i++ {
				if cp.Hops[i].Node.Parent != cp.Hops[i-1].Node.ID {
					t.Fatalf("epoch %d: truncated path has inconsistent hops", e.Epoch)
				}
			}
		}
	}
}
