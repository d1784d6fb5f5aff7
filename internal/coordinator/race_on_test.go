//go:build race

package coordinator

// raceEnabled reports that the race detector is on: it allocates on its own,
// so allocation bounds are not checked under it.
const raceEnabled = true
