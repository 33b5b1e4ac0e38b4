package cinemaserve

import (
	"sync"

	"insituviz/internal/telemetry"
)

// cacheKey addresses one cached frame on a node: the mount's ID plus the
// entry's canonical index in that mount's store. Both are small ints, so
// the key is a comparable value type and map operations on it never
// allocate — the property the 0 allocs/op hit path depends on.
type cacheKey struct {
	mount int32
	entry int32
}

// centry is one resident frame. The LRU list is intrusive (prev/next
// pointers inside the entry), so a hit moves a node with pointer surgery
// alone — no container/list allocation per operation.
type centry[K comparable] struct {
	key        K
	data       []byte
	file       string
	prev, next *centry[K]
}

// Cache is the serving stack's one frame cache: a byte-budgeted LRU over
// encoded frames. A node keys it by (mount, entry); a cluster gateway,
// which has no index to resolve against, keys it by the parsed request
// and keeps the served file name next to the bytes. The budget is a hard
// ceiling on frame bytes only (the small per-entry bookkeeping rides
// free), which keeps the accounting identical to what the exposition
// reports; a negative budget disables the cache. All methods are safe for
// concurrent use; a hit costs one mutex round trip and allocates nothing.
type Cache[K comparable] struct {
	mu     sync.Mutex
	budget int64
	used   int64
	m      map[K]*centry[K]
	head   *centry[K] // most recently used
	tail   *centry[K] // least recently used; next eviction victim

	evictions *telemetry.Counter
	usedGauge *telemetry.Gauge
}

// NewCache returns an empty cache holding at most budget frame bytes;
// evictions and used receive its eviction count and resident bytes.
func NewCache[K comparable](budget int64, evictions *telemetry.Counter, used *telemetry.Gauge) *Cache[K] {
	return &Cache[K]{budget: budget, m: map[K]*centry[K]{}, evictions: evictions, usedGauge: used}
}

// Get returns the cached bytes and file name for k, promoting the entry
// to most recently used. The returned slice is shared — callers must not
// modify it.
func (c *Cache[K]) Get(k K) ([]byte, string, bool) {
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok {
		c.mu.Unlock()
		return nil, "", false
	}
	c.moveToFront(e)
	data, file := e.data, e.file
	c.mu.Unlock()
	return data, file, true
}

// Put inserts data (and the file name it was served under) for k,
// evicting from the LRU tail until the budget holds. An empty frame is
// not cached, nor is one larger than the whole budget (it would evict
// everything and then be evicted by the next insert anyway). Re-putting
// an existing key refreshes its position and bytes.
func (c *Cache[K]) Put(k K, data []byte, file string) {
	size := int64(len(data))
	if size == 0 || size > c.budget {
		return
	}
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		c.used += size - int64(len(e.data))
		e.data, e.file = data, file
		c.moveToFront(e)
	} else {
		e := &centry[K]{key: k, data: data, file: file}
		c.m[k] = e
		c.used += size
		c.pushFront(e)
	}
	for c.used > c.budget && c.tail != nil {
		c.evict(c.tail)
	}
	c.usedGauge.Set(c.used)
	c.mu.Unlock()
}

// Contains reports residency without promoting the entry — the scrubber
// uses it to decide whether a frame is "cold", and a scrub probe must
// not perturb the LRU order real traffic established.
func (c *Cache[K]) Contains(k K) bool {
	c.mu.Lock()
	_, ok := c.m[k]
	c.mu.Unlock()
	return ok
}

// Len returns the resident entry count.
func (c *Cache[K]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Callers hold c.mu for the list operations below.

func (c *Cache[K]) pushFront(e *centry[K]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K]) unlink(e *centry[K]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[K]) moveToFront(e *centry[K]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache[K]) evict(e *centry[K]) {
	c.unlink(e)
	delete(c.m, e.key)
	c.used -= int64(len(e.data))
	c.evictions.Inc()
}
