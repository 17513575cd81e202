package experiments

import (
	"strings"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/harness"
	"declpat/internal/pattern"
)

// TransportRecord is one E21 measurement: a (algorithm, detector, transport)
// cell. The socket transports frame, CRC-seal, and push every envelope
// through a real kernel socket; the link-health counters (reconnects,
// heartbeat misses, requeued frames) are only non-zero on the faulted cell,
// whose seeded disconnect/flap schedule proves the counters — and the
// exactly-once contract — under connection failure.
type TransportRecord struct {
	Algo            string  `json:"algo"`
	Detector        string  `json:"detector"`
	Transport       string  `json:"transport"`
	Msgs            int64   `json:"msgs"`
	WireBytes       int64   `json:"wire_bytes"`
	BytesPer        float64 `json:"wire_bytes_per_msg"`
	WallNs          int64   `json:"wall_ns"`
	Retransmits     int64   `json:"retransmits"`
	Reconnects      int64   `json:"reconnects"`
	HeartbeatMisses int64   `json:"heartbeat_misses"`
	FramesRequeued  int64   `json:"frames_requeued"`
	Wrong           int     `json:"wrong"`
}

// e21Transports: "chan" is the in-process channel backend in reliable mode
// (a zero fault plan, so its envelopes are encoded as on a socket; the floor
// every socket cell is compared against), then Unix-domain sockets and TCP
// loopback, and TCP again under a seeded disconnect + flap
// schedule — all under PaperPlan, every relaxation a message. The "+shipped"
// cells run the sockets with the planner as shipped: the send-side filter
// declines relaxations that cannot win.
var e21Transports = []string{"chan", "unix", "tcp", "tcp+faults", "unix+shipped", "tcp+shipped"}

// E21TransportRecords runs the BFS/SSSP/CC x detector x transport matrix.
// Results of every transport are compared against the same
// algorithm+detector's chan run; Wrong counts differing vertices (must be 0
// — the transport seam must not change computation).
func E21TransportRecords(sc Scale) []TransportRecord {
	n, edges := workload(sc)
	var recs []TransportRecord
	for _, algo := range []string{"bfs", "sssp", "cc"} {
		for _, det := range e20Detectors {
			var ref []int64
			for _, tr := range e21Transports {
				rec, got := e21Run(sc, algo, det.name, det.kind, tr, n, edges)
				if tr == "chan" {
					ref = got
				}
				for v := range got {
					if got[v] != ref[v] {
						rec.Wrong++
					}
				}
				recs = append(recs, rec)
			}
		}
	}
	return recs
}

func e21SockTransport(network string, faulted bool) am.Transport {
	opt := am.SockOptions{Network: network, TickInterval: 200 * time.Microsecond}
	if faulted {
		opt.Faults = &am.SockFaultPlan{
			Disconnects: []am.SockDisconnect{
				{Src: 0, Dest: 1, AfterFrames: 10},
				{Src: 2, Dest: 3, AfterFrames: 25},
			},
			Flaps: []am.SockFlap{{Src: 1, Dest: 2, Period: 40, Count: 3}},
		}
	}
	return am.SockTransport(opt)
}

func e21Run(sc Scale, algo, detName string, det am.DetectorKind, tr string,
	n int, edges []distgraph.Edge) (TransportRecord, []int64) {
	gopts := defaultGOpts()
	if algo == "cc" {
		gopts.Symmetrize = true
	}
	opts := []am.Option{am.WithThreads(2), am.WithCoalesce(64), am.WithDetector(det)}
	popts := PaperPlan()
	switch tr {
	case "chan":
		// The reliable layer on the channel backend ships the same encoded
		// envelopes, so the comparison isolates the socket hop rather than
		// the codec layer.
		opts = append(opts, am.WithFaultPlan(&am.FaultPlan{Seed: harness.DeriveSeed(sc.Seed, "e21/"+algo+"/"+detName)}))
	case "unix":
		opts = append(opts, am.WithTransport(e21SockTransport("unix", false)))
	case "tcp":
		opts = append(opts, am.WithTransport(e21SockTransport("tcp", false)))
	case "tcp+faults":
		opts = append(opts, am.WithTransport(e21SockTransport("tcp", true)))
	case "unix+shipped", "tcp+shipped":
		opts = append(opts, am.WithTransport(e21SockTransport(strings.TrimSuffix(tr, "+shipped"), false)))
		popts = pattern.DefaultPlanOptions()
	}
	e := newEnv(am.New(4, opts...), n, edges, gopts, popts)
	var body func(r *am.Rank)
	var gather func() []int64
	switch algo {
	case "bfs":
		b := algorithms.NewBFS(e.eng)
		body = func(r *am.Rank) { b.Run(r, 0) }
		gather = b.Level.Gather
	case "sssp":
		s := algorithms.NewSSSP(e.eng)
		body = func(r *am.Rank) { s.Run(r, 0) }
		gather = s.Dist.Gather
	case "cc":
		c := algorithms.NewCC(e.eng, e.lm)
		body = func(r *am.Rank) { c.Run(r) }
		gather = func() []int64 { return algorithms.Canonicalize(c.Comp.Gather()) }
	}
	d := harness.Time(func() {
		// No cell injects a fault the substrate cannot absorb: an error here
		// is a finding, and a partial answer must not pass for a wrong one.
		if err := e.u.Run(body); err != nil {
			panic("E21 " + algo + "/" + detName + "/" + tr + ": " + err.Error())
		}
	})
	s := e.u.Stats.Snapshot()
	rec := TransportRecord{
		Algo: algo, Detector: detName, Transport: tr,
		Msgs: s.MsgsSent, WireBytes: s.WireBytes, WallNs: d.Nanoseconds(),
		Retransmits: s.Retransmits, Reconnects: s.Reconnects,
		HeartbeatMisses: s.HeartbeatMisses, FramesRequeued: s.FramesRequeued,
	}
	if rec.Msgs > 0 {
		rec.BytesPer = float64(rec.WireBytes) / float64(rec.Msgs)
	}
	return rec, gather()
}

// E21Transport renders the record matrix as the suite table. The headline
// claims: Unix and TCP loopback match the channel backend bit for bit
// ("wrong" 0 everywhere), and the faulted TCP cell completes with non-zero
// reconnect and requeue counters — connection failure costs time, never
// answers.
func E21Transport(sc Scale) []*harness.Table {
	t := harness.NewTable("E21: transport seam — chan vs unix vs tcp loopback (BFS/SSSP/CC, 4 ranks x 2 threads, fixed codec)",
		"algorithm", "detector", "transport", "messages", "wire-bytes", "time", "retransmits", "reconnects", "hb-misses", "requeued", "wrong")
	for _, r := range E21TransportRecords(sc) {
		t.Add(r.Algo, r.Detector, r.Transport, r.Msgs, r.WireBytes,
			time.Duration(r.WallNs).Round(time.Millisecond),
			r.Retransmits, r.Reconnects, r.HeartbeatMisses, r.FramesRequeued, r.Wrong)
	}
	return []*harness.Table{t}
}
