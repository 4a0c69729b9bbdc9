package storage

// Commit combining for SyncDurable tables.
//
// Under SyncDurable every WAL commit ends in an fdatasync (~100µs on
// commodity disks), so concurrent producers that each commit alone
// serialise on the device. The combiner lets one of them commit for all:
// callers append a request to a mutex-guarded pending slice, and
// whichever wins TryLock on the combiner role drains every pending
// request into one insertBatchLocked — one table-lock acquisition, one
// WAL group append, one fdatasync. An uncontended caller skips the
// queue and commits directly, allocating nothing.
//
// Every call stays synchronous: Insert and InsertBatch return only once
// their rows are in the window and (unless the table is degraded) in a
// synced WAL group, with the group's outcome as their error. So the
// ordering and durability contracts are exactly the locked path's —
// per-caller FIFO, visible and durable on return — and no
// acknowledged-but-unapplied entry ever exists for Flush, Truncate,
// Checkpoint, Recover or Close to wait for.
//
// Lock order: combiner.mu > combiner.run (TryLock only, so never
// blocking) and combiner.run > Table.mu.

import (
	"runtime"
	"sync"

	"gsn/internal/stream"
)

// commitReq is one queued Insert (one) or InsertBatch (batch) waiting
// for a combined commit; done receives the group's outcome.
type commitReq struct {
	one   stream.Element
	batch []stream.Element
	done  chan error
}

// combiner is a table's commit-combining state; used only when the
// table's WAL commits end in a device sync.
type combiner struct {
	mu      sync.Mutex
	pending []commitReq
	// run is the combiner role. It is only ever TryLocked, so the
	// holder's release-recheck in combine is what keeps a request from
	// being stranded.
	run sync.Mutex
	// spare and arena are the role holder's scratch, guarded by run.
	spare []commitReq
	arena []stream.Element
}

// commitDonePool recycles done channels (capacity 1: the combiner's send
// never blocks on the waiter).
var commitDonePool = sync.Pool{New: func() any { return make(chan error, 1) }}

// insertCombined commits req through the combiner and returns its
// group's outcome. Schemas are already validated.
func (t *Table) insertCombined(req commitReq) error {
	c := t.comb
	c.mu.Lock()
	if len(c.pending) == 0 && c.run.TryLock() {
		c.mu.Unlock()
		t.mu.Lock()
		var err error
		if req.batch != nil {
			err = t.insertBatchLocked(req.batch)
		} else {
			err = t.insertOneLocked(req.one)
		}
		t.mu.Unlock()
		c.run.Unlock()
		t.combine() // serve whoever queued behind this commit
		return err
	}
	req.done = commitDonePool.Get().(chan error)
	c.pending = append(c.pending, req)
	c.mu.Unlock()
	t.combine()
	err := <-req.done
	commitDonePool.Put(req.done)
	return err
}

// combine takes the combiner role while requests are pending and
// commits each drained set as one group. A caller that queued and lost
// the TryLock is served by the current holder, which re-checks the
// queue after every release.
func (t *Table) combine() {
	c := t.comb
	for {
		c.mu.Lock()
		if len(c.pending) == 0 || !c.run.TryLock() {
			c.mu.Unlock()
			return
		}
		// Arrival window: while more callers keep queueing, yield so
		// the ones just woken from the previous group can join this one
		// and share its fdatasync. A lone request skips the window.
		for n := len(c.pending); n > 1; {
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
			if len(c.pending) <= n {
				break
			}
			n = len(c.pending)
		}
		reqs := c.pending
		c.pending = c.spare
		c.mu.Unlock()

		arena := c.arena[:0]
		for _, r := range reqs {
			if r.batch != nil {
				arena = append(arena, r.batch...)
			} else {
				arena = append(arena, r.one)
			}
		}
		t.mu.Lock()
		err := t.insertBatchLocked(arena)
		t.mu.Unlock()
		for _, r := range reqs {
			r.done <- err
		}
		// Drop element references held by the reusable scratch.
		clear(arena)
		clear(reqs)
		c.arena, c.spare = arena[:0], reqs[:0]
		c.run.Unlock()
	}
}
