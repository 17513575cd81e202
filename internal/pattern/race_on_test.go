//go:build race

package pattern

// raceEnabled: the race detector is on; it allocates on paths that otherwise
// do not.
const raceEnabled = true
