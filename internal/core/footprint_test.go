package core

import (
	"fmt"
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// registeredQueryBudget bounds the heap one registration retains when
// its text differs from the others only in WHERE constants: the query,
// its group and parameter values, not a parsed statement and a
// compiled plan per text.
const registeredQueryBudget = 800 // bytes

// TestRegisteredQueryFootprintAllocs registers 1,000 statements that
// differ only in WHERE constants and bounds the heap retained per
// registration (the caller's SQL text excluded).
func TestRegisteredQueryFootprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	c := testContainer(t)
	deployVals(t, c, 20)
	const n = 1000
	texts := make([]string, n)
	for i := range texts {
		texts[i] = fmt.Sprintf("select count(*), avg(value) from vals where value > %d and value <= %d", i%97, 101+i)
	}
	repo := c.QueryRepositoryRef()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, sql := range texts {
		if _, err := c.RegisterQuery("vals", sql, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(texts)

	if got := repo.templateCount("vals"); got != 1 {
		t.Fatalf("templateCount = %d, want 1", got)
	}
	perQuery := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("%d B retained per registration", perQuery)
	if perQuery > registeredQueryBudget {
		t.Errorf("%d B retained per registration, budget %d B", perQuery, registeredQueryBudget)
	}
}
