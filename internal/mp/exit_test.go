package mp

import "testing"

// TestDescribeExit pins the launcher's reading of worker exit statuses. 2 is
// no worker code: it is what a Go runtime panic exits with, so a worker that
// panics must not be logged as a usage error.
func TestDescribeExit(t *testing.T) {
	for _, c := range []struct {
		code int
		want string
	}{
		{ExitClean, "code 0 (clean)"},
		{ExitFatal, "code 1 (fatal error)"},
		{2, "code 2 (Go runtime panic)"},
		{ExitRestart, "code 3 (restart requested: fleet aborted)"},
		{ExitPeerClosed, "code 4 (control peer closed)"},
		{ExitDecode, "code 5 (control frame decode failure)"},
		{-1, "killed by signal"},
		{7, "code 7"},
	} {
		if got := describeExit(c.code); got != c.want {
			t.Errorf("describeExit(%d) = %q, want %q", c.code, got, c.want)
		}
	}
}
