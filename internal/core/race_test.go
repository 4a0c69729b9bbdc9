//go:build race

package core

// The race detector instruments allocations, so heap figures are only
// meaningful without it.
func init() { raceEnabled = true }
