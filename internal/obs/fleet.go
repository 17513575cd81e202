package obs

import (
	"os"
	"path/filepath"
)

// Fleet trace assembly: aligning a worker's streamed records onto the
// launcher's timebase, and reading back the one timeline a launch writes.

// AlignRecords stamps worker onto every record and shifts timestamps by
// offset (launcher ≈ local + offset), in place, returning recs.
func AlignRecords(recs []Record, worker int, offset int64) []Record {
	for i := range recs {
		recs[i].W = worker
		recs[i].TS += offset
	}
	return recs
}

// ReadTraceDir reads the timeline a traced launch leaves in its trace
// directory, dir/fleet.trace.jsonl: a fleet's merged, offset-corrected
// record stream, or an in-process run's export.
func ReadTraceDir(dir string) (Meta, []Record, error) {
	f, err := os.Open(filepath.Join(dir, "fleet.trace.jsonl"))
	if err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}
