package main

import (
	"fmt"
	"math"
	"math/rand"
)

// The generated inputs are a pure function of (seed, source, seq), so
// the reference checks recompute any element the program reports
// without keeping a copy of the stream.

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// inputs is the seeded generator of element values.
type inputs struct{ seed int64 }

func (g inputs) draw(src, seq int64, salt uint64) uint64 {
	return mix(mix(uint64(g.seed)^salt) ^ uint64(src)<<40 ^ uint64(seq))
}

// v is the reading of element seq of source src, in [0, 1000).
func (g inputs) v(src, seq int64) int64 { return int64(g.draw(src, seq, 1) % 1000) }

// room is the group of element seq of source src, in [0, rooms).
func (g inputs) room(src, seq int64, rooms int) int64 {
	return int64(g.draw(src, seq, 2) % uint64(rooms))
}

// frameBytes is the size of a camera frame.
const frameBytes = 16 << 10

// seededFrames draws the eight camera frames elements cycle through.
func seededFrames(rng *rand.Rand) [][]byte {
	frames := make([][]byte, 8)
	for i := range frames {
		frames[i] = make([]byte, frameBytes)
		rng.Read(frames[i])
	}
	return frames
}

// roomName is the varchar form of a room index.
func roomName(r int64) string { return fmt.Sprintf("r%02d", r) }

// sameFloat compares a program-computed float with a reference value,
// allowing the rounding of a different summation order.
func sameFloat(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// asInt reads an integer column value (the engine returns int64 for
// integer fields and aggregates over them, float64 for averages).
func asInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case float64:
		if x == math.Trunc(x) {
			return int64(x), true
		}
	}
	return 0, false
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}
