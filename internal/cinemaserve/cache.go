package cinemaserve

import (
	"math"
	"sync"

	"insituviz/internal/faults"
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

// hash is the node cache's admission hash: the key's two ints through
// the splitmix64 finalizer.
func (k cacheKey) hash() uint64 {
	return faults.Mix64(uint64(uint32(k.mount))<<32 | uint64(uint32(k.entry)))
}

// centry is one resident frame. The LRU list is intrusive (prev/next
// pointers inside the entry), so a hit moves a node with pointer surgery
// alone — no container/list allocation per operation. hash is the key's
// sketch hash, kept so that admission can estimate a victim's frequency
// without rehashing it.
type centry[K comparable] struct {
	key        K
	hash       uint64
	data       []byte
	file       string
	prev, next *centry[K]
}

// Cache is the serving stack's one frame cache: a byte-budgeted LRU over
// encoded frames with frequency-aware admission (TinyLFU). A node keys it
// by (mount, entry); a cluster gateway, which has no index to resolve
// against, keys it by the parsed request and keeps the served file name
// next to the bytes. The budget is a hard ceiling on frame bytes only
// (the small per-entry bookkeeping rides free), which keeps the
// accounting identical to what the exposition reports; a negative budget
// disables the cache.
//
// Every Get, hit or miss, counts one request for its key in a count-min
// sketch. A Put that fits is kept; a Put that would have to evict is kept
// only if its key has been requested strictly more often than every
// entry it would displace, least recently used first. Otherwise the frame
// is served but not cached, so one sweep over cold keys cannot flush the
// frames Zipf-like traffic keeps re-reading. Ties go to the resident
// entry: swapping two frames requested equally often costs an eviction
// and gains nothing.
//
// All methods are safe for concurrent use; a hit costs one mutex round
// trip and allocates nothing.
type Cache[K comparable] struct {
	hash func(K) uint64 // deterministic: admissions must replay per seed
	freq *sketch        // nil when the cache is disabled

	mu     sync.Mutex
	budget int64
	used   int64
	m      map[K]*centry[K]
	head   *centry[K] // most recently used
	tail   *centry[K] // least recently used; next eviction victim

	evictions *telemetry.Counter
	usedGauge *telemetry.Gauge
}

// NewCache returns an empty cache holding at most budget frame bytes.
// hash maps a key onto the frequency sketch; it must be a pure function
// of the key (not a per-process random seed), so that one request
// sequence always admits the same frames. evictions and used receive the
// eviction count and resident bytes.
func NewCache[K comparable](budget int64, hash func(K) uint64, evictions *telemetry.Counter, used *telemetry.Gauge) *Cache[K] {
	c := &Cache[K]{hash: hash, budget: budget, m: map[K]*centry[K]{}, evictions: evictions, usedGauge: used}
	if budget > 0 {
		c.freq = new(sketch)
	}
	return c
}

// Get returns the cached bytes and file name for k, promoting the entry
// to most recently used, and counts one request for k. The returned slice
// is shared — callers must not modify it.
func (c *Cache[K]) Get(k K) ([]byte, string, bool) {
	return c.get(k, true)
}

// get is Get; with record false it does not count a request, for a
// caller re-checking on behalf of a request already counted.
func (c *Cache[K]) get(k K, record bool) ([]byte, string, bool) {
	record = record && c.freq != nil
	var h uint64
	if record {
		h = c.hash(k)
	}
	c.mu.Lock()
	if record {
		c.freq.add(h)
	}
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
// everything and then be evicted by the next insert anyway), nor is a
// new key the admission rule turns away. Re-putting an existing key
// refreshes its position and bytes; re-putting it with a frame that is
// not cached drops the older one, so a Get never returns bytes older than
// the last Put for its key.
func (c *Cache[K]) Put(k K, data []byte, file string) {
	size := int64(len(data))
	if size == 0 || size > c.budget {
		if c.freq != nil {
			c.drop(k)
		}
		return
	}
	h := c.hash(k)
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		c.used += size - int64(len(e.data))
		e.data, e.file = data, file
		c.moveToFront(e)
	} else {
		if !c.admit(h, size) {
			c.mu.Unlock()
			return
		}
		e := &centry[K]{key: k, hash: h, data: data, file: file}
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

// drop removes k's entry, if resident, without counting an eviction: no
// frame was displaced to make room.
func (c *Cache[K]) drop(k K) {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		c.unlink(e)
		delete(c.m, k)
		c.used -= int64(len(e.data))
		c.usedGauge.Set(c.used)
	}
	c.mu.Unlock()
}

// Len returns the resident entry count.
func (c *Cache[K]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Callers hold c.mu for admit and the list operations below.

// admit reports whether a new frame of size bytes whose key hashes to h
// may enter: yes if it fits beside the residents, otherwise only if its
// estimated frequency is strictly above that of every entry evicting
// from the tail would displace to make room.
func (c *Cache[K]) admit(h uint64, size int64) bool {
	need := c.used + size - c.budget
	if need <= 0 {
		return true
	}
	f := c.freq.estimate(h)
	for e := c.tail; e != nil && need > 0; e = e.prev {
		if c.freq.estimate(e.hash) >= f {
			return false
		}
		need -= int64(len(e.data))
	}
	return true
}

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

// Sketch dimensions: sketchRows independent rows of sketchWidth one-byte
// counters (16 KiB), halved after every sketchReset recorded requests.
const (
	sketchRows  = 4
	sketchWidth = 4096 // a power of two: a row index is a masked slice of the hash
	sketchReset = 10 * sketchWidth
)

// sketch is a count-min sketch of request frequency. Each row takes its
// counter index from its own 16-bit slice of the key's 64-bit hash, and
// the estimate is the minimum over the rows, so collisions can only
// overcount. Counters saturate at 255, and every sketchReset requests all
// of them are halved, so the estimate follows recent popularity rather
// than all-time totals (TinyLFU's reset).
type sketch struct {
	rows    [sketchRows][sketchWidth]uint8
	samples int
}

func (s *sketch) add(h uint64) {
	for i := range s.rows {
		if c := &s.rows[i][(h>>(16*i))&(sketchWidth-1)]; *c < math.MaxUint8 {
			*c++
		}
	}
	if s.samples++; s.samples == sketchReset {
		for i := range s.rows {
			for j := range s.rows[i] {
				s.rows[i][j] >>= 1
			}
		}
		s.samples = 0
	}
}

func (s *sketch) estimate(h uint64) uint8 {
	m := uint8(math.MaxUint8)
	for i := range s.rows {
		m = min(m, s.rows[i][(h>>(16*i))&(sketchWidth-1)])
	}
	return m
}
