//go:build race

package fleet

// raceEnabled reports a build with the race detector, whose sync.Pool
// drops a random quarter of the objects put back, so pooled objects are
// reallocated at random.
const raceEnabled = true
