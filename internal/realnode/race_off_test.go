//go:build !race

package realnode

const raceEnabled = false
