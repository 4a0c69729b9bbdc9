//go:build race

package resilience

// The race detector instruments allocations, so allocation counts are
// only meaningful without it.
func init() { raceEnabled = true }
