package main

import "time"

// waitUntil sleeps until due. Timers overshoot by about 0.1 ms when the
// sleep is a millisecond or longer (and by up to a millisecond below
// that), so every workload's tick is several milliseconds long; the
// overshoot is part of the generator lateness gen.lag_ms reports.
func waitUntil(due time.Time) { time.Sleep(time.Until(due)) }

// openLoop fires element k at its due time start + k*period, for every
// due time before end. It never waits for the system under test: when a
// fire call returns late, the elements already due fire back to back
// until the schedule is caught up, and every element's lateness (fire
// instant minus due time) lands in lag, in milliseconds. It returns the
// number of elements fired.
func openLoop(start, end time.Time, period time.Duration, lag *dist, fire func(k int64, due time.Time)) int64 {
	return openLoopClock(start, end, period, lag, fire, time.Now, waitUntil)
}

// openLoopClock is openLoop with the clock injectable for tests.
func openLoopClock(start, end time.Time, period time.Duration, lag *dist,
	fire func(k int64, due time.Time), now func() time.Time, wait func(time.Time)) int64 {
	var k int64
	for {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(end) {
			return k
		}
		if now().Before(due) {
			wait(due)
		}
		lag.add(float64(now().Sub(due)) / 1e6)
		fire(k, due)
		k++
	}
}
