//go:build race

package stream

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of the items put back, so pooled-allocation bounds do not hold.
const raceEnabled = true
