//go:build race

package realnode

// raceEnabled reports that the race detector is on: it allocates shadow
// state of its own, so allocation budgets are not checked under it.
const raceEnabled = true
