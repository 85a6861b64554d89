// Package dedup implements the server-side at-most-once reply cache
// shared by the simulated ORB (internal/orb) and the real-socket wire
// server (internal/wire). Requests carrying the GIOP FT request context
// are keyed on its (group, client, retention) triple; the cache
// guarantees that one key executes at most once per replica however
// often it is retried:
//
//   - the first sighting is admitted and registered as in flight;
//   - a duplicate arriving while the original is in flight is parked and
//     answered with the original's outcome;
//   - a duplicate arriving after completion is answered with the cached
//     reply — same status, same body bytes — without executing;
//   - an invocation that never reached its servant (refused, shed,
//     cancelled) is forgotten, so its retry may execute.
//
// Completed replies are evicted oldest-first once the cache exceeds its
// capacity; in-flight entries are never evicted, because duplicates may
// be parked on them. Every operation is O(1). The cache is safe for
// concurrent use; it never calls out, so callers answer the waiters it
// hands back without holding its lock.
package dedup

import (
	"sync"

	"repro/internal/giop"
)

// Reply is a cached outcome: replayed verbatim under the duplicate's own
// request id.
type Reply struct {
	Status giop.ReplyStatus
	Body   []byte
}

// Verdict is Admit's decision.
type Verdict int

const (
	// First: not seen before; now in flight. The caller must execute the
	// request and then call Complete, or give up with Abort or Cancel.
	First Verdict = iota
	// Parked: a duplicate of an in-flight invocation; the waiter is held
	// and comes back from that invocation's Complete or Abort.
	Parked
	// Replay: a duplicate of a completed invocation; answer it with the
	// returned Reply.
	Replay
)

// entry is one invocation: in flight until done, then a cached reply
// linked into the eviction queue.
type entry[W any] struct {
	key     giop.FTKey
	done    bool
	reply   Reply
	waiters []W
	next    *entry[W] // eviction queue, completion order
}

// Cache is the at-most-once reply cache. W is whatever the caller needs
// to answer a parked duplicate later (its connection and request id).
type Cache[W any] struct {
	mu      sync.Mutex
	cap     int
	entries map[giop.FTKey]*entry[W]
	// oldest/newest are the ends of the queue of completed entries;
	// in-flight entries are not on it, which is what exempts them from
	// eviction.
	oldest, newest *entry[W]
}

// New creates a cache holding up to capacity invocations; in-flight ones
// count against the capacity but only completed ones make room.
func New[W any](capacity int) *Cache[W] {
	return &Cache[W]{cap: capacity, entries: make(map[giop.FTKey]*entry[W])}
}

// Admit gates one request. waiter is retained only on Parked.
func (c *Cache[W]) Admit(k giop.FTKey, waiter W) (Verdict, Reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	switch {
	case !ok:
		c.entries[k] = &entry[W]{key: k}
		c.evict()
		return First, Reply{}
	case e.done:
		return Replay, e.reply
	default:
		e.waiters = append(e.waiters, waiter)
		return Parked, Reply{}
	}
}

// Complete records the outcome of an executed invocation and returns
// the duplicates parked on it, which the caller answers with r.
func (c *Cache[W]) Complete(k giop.FTKey, r Reply) []W {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || e.done {
		return nil
	}
	waiters := e.waiters
	e.done, e.reply, e.waiters = true, r, nil
	if c.newest == nil {
		c.oldest = e
	} else {
		c.newest.next = e
	}
	c.newest = e
	return waiters
}

// Abort forgets an in-flight invocation that never executed, so that a
// retry may. It returns the duplicates parked on it; the caller answers
// them with the refusal the original got.
func (c *Cache[W]) Abort(k giop.FTKey) []W {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || e.done {
		return nil
	}
	delete(c.entries, k)
	return e.waiters
}

// Cancel is Abort for an invocation whose client withdrew it before it
// ran. While duplicates are parked the invocation is still wanted:
// Cancel then leaves it in flight and returns false, and the caller
// executes it after all.
func (c *Cache[W]) Cancel(k giop.FTKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok && !e.done {
		if len(e.waiters) > 0 {
			return false
		}
		delete(c.entries, k)
	}
	return true
}

// evict makes room for a new admission: it drops the oldest completed
// replies while the cache is over capacity. Caller holds mu.
func (c *Cache[W]) evict() {
	for len(c.entries) > c.cap && c.oldest != nil {
		e := c.oldest
		c.oldest = e.next
		if c.oldest == nil {
			c.newest = nil
		}
		delete(c.entries, e.key)
	}
}
