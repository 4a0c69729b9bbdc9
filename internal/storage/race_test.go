//go:build race

package storage

// The race detector makes sync.Pool drop items at random, so allocation
// counts are only meaningful without it.
func init() { raceEnabled = true }
