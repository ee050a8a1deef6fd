// Package cache is the serving layer's memoization substrate: a
// concurrency-safe LRU bounded by resident bytes, with single-flight
// computation so concurrent misses on one key run the (expensive) producer
// exactly once.
//
// Benchmark generation in this repo is deterministic — a (design, scale,
// seed) triple always yields the same layout — so a byte-bounded cache
// turns repeated batch jobs and server requests into pointer lookups. The
// cache stores arbitrary values; callers supply each entry's size, and the
// LRU evicts from the cold end whenever the resident total would exceed the
// bound.
package cache

import (
	"container/list"
	"errors"
	"sync"
)

// ErrComputePanicked is the error Do returns to callers that joined an
// in-flight computation whose compute panicked.
var ErrComputePanicked = errors.New("cache: in-flight computation panicked")

// LRU is a byte-bounded least-recently-used cache. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type LRU struct {
	mu       sync.Mutex
	max      int64 // resident-bytes bound; <= 0 means unbounded
	ll       *list.List
	items    map[string]*list.Element
	inflight map[string]*call
	bytes    int64

	hits, misses, evictions int64
}

type entry struct {
	key  string
	v    any
	size int64
}

// call is one in-flight computation; waiters block on wg and read v/err
// after Done.
type call struct {
	wg  sync.WaitGroup
	v   any
	err error
}

// Stats is a snapshot of the cache's accounting.
type Stats struct {
	// Hits counts lookups served from a resident entry or by joining an
	// in-flight computation; Misses counts lookups that had to compute.
	Hits, Misses int64
	// Evictions counts entries dropped to stay under the byte bound.
	Evictions int64
	// Entries and Bytes describe the resident set; MaxBytes is the bound
	// (0 = unbounded).
	Entries  int
	Bytes    int64
	MaxBytes int64
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// New builds an LRU bounded to maxBytes of resident values (callers account
// sizes; keys and bookkeeping are not counted). maxBytes <= 0 means
// unbounded.
func New(maxBytes int64) *LRU {
	return &LRU{
		max:      maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*call),
	}
}

// Stats snapshots the cumulative accounting.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.ll.Len(), Bytes: c.bytes, MaxBytes: c.max,
	}
}

// Len returns the number of resident entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the resident size total.
func (c *LRU) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Get returns the value cached under key and marks it most recently used.
// Every call counts as a hit or a miss.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*entry).v, true
	}
	c.misses++
	return nil, false
}

// Add stores v under key with the given resident size, replacing any
// previous entry, and evicts from the cold end until the byte bound holds.
// A value larger than the whole bound is not stored at all — admitting it
// would evict everything for an entry that can never be bounded.
func (c *LRU) Add(key string, v any, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, v, size)
}

func (c *LRU) add(key string, v any, size int64) {
	if size < 0 {
		size = 0
	}
	if c.max > 0 && size > c.max {
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.v, e.size = v, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, v: v, size: size})
		c.bytes += size
	}
	for c.max > 0 && c.bytes > c.max {
		el := c.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*entry)
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// Do returns the value cached under key, computing and caching it on a miss.
// Concurrent Do calls for the same key run compute exactly once: the first
// caller computes (a miss) while the rest wait and share the result (hits —
// they skipped the computation, which is what hit accounting measures).
// compute returns the value and its resident size; errors are returned to
// every waiter and never cached. If compute panics, the call still
// finishes — waiters get ErrComputePanicked, the key is computed afresh by
// the next Do — and the panic continues up the computing caller's stack.
func (c *LRU) Do(key string, compute func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		v := el.Value.(*entry).v
		c.mu.Unlock()
		return v, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		cl.wg.Wait()
		return cl.v, cl.err
	}
	c.misses++
	cl := &call{err: ErrComputePanicked} // overwritten unless compute panics
	cl.wg.Add(1)
	c.inflight[key] = cl
	c.mu.Unlock()

	var size int64
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if cl.err == nil {
			c.add(key, cl.v, size)
		}
		c.mu.Unlock()
		cl.wg.Done()
	}()
	v, size, err := compute()
	cl.v, cl.err = v, err
	return v, err
}
