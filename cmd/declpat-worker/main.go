// declpat-worker is the rank-host worker process of the distributed runtime.
//
// Started with -host (or with the DECLPAT_MP_ADDR / DECLPAT_MP_WORKER
// environment set by declpat-launch), the process dials the launcher's
// control plane, receives its job and contiguous global rank range in the
// welcome frame, and runs the unmodified algorithm kernels with every
// barrier, gather, termination wave, and recovery fence carried as wire
// frames. Kill it mid-run and the launcher respawns it; the replacement
// reloads the last committed checkpoint and the fleet converges on a result
// bit-identical to the fault-free run.
//
// Usage:
//
//	declpat-worker -host 127.0.0.1:9731 -index 2
//
// Exit codes (the launcher logs which it saw on respawn):
//
//	0 clean completion or graceful SIGTERM departure
//	1 fatal error (bad job, dial failure)
//	2 usage
//	3 restart requested (the fleet aborted; respawn me)
//	4 control peer closed the connection
//	5 control frame failed to decode (protocol damage, not a dead peer)
package main

import (
	"flag"
	"fmt"
	"os"

	"declpat/internal/mp"
)

func main() {
	// Launcher-spawned rank hosts are configured by environment; this call
	// does not return for them.
	mp.MaybeWorker()

	host := flag.String("host", "", "control-plane address to dial as a rank host")
	index := flag.Int("index", -1, "worker index within the fleet")
	flag.Parse()

	if *host == "" || *index < 0 {
		fmt.Fprintln(os.Stderr, "declpat-worker: need -host ADDR and -index N")
		os.Exit(mp.ExitUsage)
	}
	os.Exit(mp.RunWorker(*host, *index))
}
