package cinemaserve

import (
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"strings"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/faults"
	"insituviz/internal/telemetry"
)

// Bytes returns the current resident frame bytes.
func (c *Cache[K]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// strHash and intHash are the tests' admission hashes: deterministic,
// like the node's and the gateway's.
func strHash(s string) uint64 { return faults.Mix64(faults.FNV64a(s)) }
func intHash(k int) uint64    { return faults.Mix64(uint64(k)) }

// TestCache drives the one frame cache directly, as a script of
// operations per case, and checks residency in eviction order, the byte
// accounting and the two telemetry handles after each script. A get
// counts a request whether it hits or misses, as a server's lookup does
// before it reads and puts a frame; a put of a new key that needs room
// is admitted only if its key was requested strictly more often than
// every entry it would evict.
func TestCache(t *testing.T) {
	type op struct {
		do    string // put | get | contains
		key   string
		size  int
		want  bool // get / contains result
		times int  // get: repeat count (0 means once)
	}
	frame := func(n int) []byte { return make([]byte, n) }
	cases := []struct {
		name      string
		budget    int64
		ops       []op
		wantKeys  string // resident keys, least recently used first
		wantBytes int64
		wantEvict int64
	}{
		{
			name: "budget is a hard ceiling", budget: 10,
			ops: []op{
				{do: "put", key: "a", size: 4}, {do: "put", key: "b", size: 4},
				{do: "get", key: "c"}, {do: "put", key: "c", size: 4},
			},
			wantKeys: "b c", wantBytes: 8, wantEvict: 1,
		},
		{
			name: "exact fit is kept", budget: 8,
			ops:      []op{{do: "put", key: "a", size: 4}, {do: "put", key: "b", size: 4}},
			wantKeys: "a b", wantBytes: 8,
		},
		{
			name: "oversize and empty are refused", budget: 10,
			ops: []op{
				{do: "put", key: "a", size: 4}, {do: "put", key: "big", size: 11}, {do: "put", key: "nil", size: 0},
				{do: "get", key: "big", want: false}, {do: "get", key: "nil", want: false},
			},
			wantKeys: "a", wantBytes: 4,
		},
		{
			name: "re-put re-accounts bytes", budget: 10,
			ops:      []op{{do: "put", key: "a", size: 4}, {do: "put", key: "b", size: 2}, {do: "put", key: "a", size: 7}},
			wantKeys: "b a", wantBytes: 9,
		},
		{
			// A resident key is not re-admitted: growing it evicts the
			// others whatever their frequencies.
			name: "re-put that grows past the budget evicts the others", budget: 10,
			ops: []op{
				{do: "get", key: "b", times: 3},
				{do: "put", key: "a", size: 4}, {do: "put", key: "b", size: 4}, {do: "put", key: "a", size: 8},
			},
			wantKeys: "a", wantBytes: 8, wantEvict: 1,
		},
		{
			// Without the promotion a, requested as often as c, would be
			// the victim and c would be turned away.
			name: "get promotes", budget: 8,
			ops: []op{
				{do: "put", key: "a", size: 4}, {do: "put", key: "b", size: 4},
				{do: "get", key: "a", want: true}, {do: "get", key: "c"}, {do: "put", key: "c", size: 4},
			},
			wantKeys: "a c", wantBytes: 8, wantEvict: 1,
		},
		{
			// Contains neither promotes a nor counts a request for it.
			name: "contains does not promote", budget: 8,
			ops: []op{
				{do: "put", key: "a", size: 4}, {do: "put", key: "b", size: 4},
				{do: "contains", key: "a", want: true}, {do: "contains", key: "x", want: false},
				{do: "get", key: "c"}, {do: "put", key: "c", size: 4},
			},
			wantKeys: "b c", wantBytes: 8, wantEvict: 1,
		},
		{
			name: "eviction runs from the least recently used end", budget: 12,
			ops: []op{
				{do: "put", key: "a", size: 4}, {do: "put", key: "b", size: 4}, {do: "put", key: "c", size: 4},
				{do: "get", key: "a", want: true}, {do: "get", key: "d"}, {do: "put", key: "d", size: 8},
			},
			wantKeys: "a d", wantBytes: 12, wantEvict: 2,
		},
		{
			// Ties go to the resident: one request each, c is served but
			// not cached, so asking again still misses.
			name: "a frame requested no more often than its victim is not admitted", budget: 8,
			ops: []op{
				{do: "get", key: "a"}, {do: "put", key: "a", size: 4},
				{do: "get", key: "b"}, {do: "put", key: "b", size: 4},
				{do: "get", key: "c"}, {do: "put", key: "c", size: 4},
				{do: "contains", key: "c", want: false},
			},
			wantKeys: "a b", wantBytes: 8,
		},
		{
			// d needs two victims: it beats a at two requests but not b,
			// and enters only once it beats both.
			name: "admission must beat every entry it would evict", budget: 12,
			ops: []op{
				{do: "get", key: "a"}, {do: "put", key: "a", size: 4},
				{do: "get", key: "b", times: 3}, {do: "put", key: "b", size: 4},
				{do: "get", key: "c"}, {do: "put", key: "c", size: 4},
				{do: "get", key: "d", times: 2}, {do: "put", key: "d", size: 8},
				{do: "contains", key: "d", want: false},
				{do: "get", key: "d", times: 2}, {do: "put", key: "d", size: 8},
			},
			wantKeys: "c d", wantBytes: 12, wantEvict: 2,
		},
		{
			name: "negative budget disables", budget: -1,
			ops: []op{
				{do: "put", key: "a", size: 4}, {do: "get", key: "a", want: false}, {do: "contains", key: "a", want: false},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			evictions, used := reg.Counter("cache.evictions"), reg.Gauge("cache.used.bytes")
			c := NewCache(tc.budget, strHash, evictions, used)
			for i, o := range tc.ops {
				switch o.do {
				case "put":
					c.Put(o.key, frame(o.size), o.key+".png")
					if c.Bytes() > tc.budget && tc.budget >= 0 {
						t.Fatalf("op %d: %d resident bytes exceed the budget %d", i, c.Bytes(), tc.budget)
					}
				case "get":
					for n := 0; n < max(o.times, 1); n++ {
						data, file, ok := c.Get(o.key)
						if ok != o.want {
							t.Fatalf("op %d: Get(%q) = %v, want %v", i, o.key, ok, o.want)
						}
						if ok && (file != o.key+".png" || len(data) == 0) {
							t.Fatalf("op %d: Get(%q) = %d bytes, file %q", i, o.key, len(data), file)
						}
					}
				case "contains":
					if got := c.Contains(o.key); got != o.want {
						t.Fatalf("op %d: Contains(%q) = %v, want %v", i, o.key, got, o.want)
					}
				}
			}
			if got := c.Bytes(); got != tc.wantBytes || used.Value() != got {
				t.Errorf("Bytes = %d (gauge %d), want %d", got, used.Value(), tc.wantBytes)
			}
			if got := evictions.Value(); got != tc.wantEvict {
				t.Errorf("evictions = %d, want %d", got, tc.wantEvict)
			}
			keys := residentLRUFirst(c)
			if got := strings.Join(keys, " "); got != tc.wantKeys {
				t.Errorf("resident keys (LRU first) = %q, want %q", got, tc.wantKeys)
			}
			if c.Len() != len(keys) {
				t.Errorf("Len = %d, list holds %d", c.Len(), len(keys))
			}
		})
	}
}

// residentLRUFirst lists c's keys from the eviction end.
func residentLRUFirst[K comparable](c *Cache[K]) []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []K
	for e := c.tail; e != nil; e = e.prev {
		keys = append(keys, e.key)
	}
	return keys
}

// TestSketchCountsAndHalves pins the frequency sketch: it never
// undercounts (and, for a few dozen keys over 4 096-wide rows, counts
// exactly), saturates at 255, and halves every counter after sketchReset
// recorded requests.
func TestSketchCountsAndHalves(t *testing.T) {
	var s sketch
	const keys = 64
	recorded := 0
	for k := 0; k < keys; k++ {
		for n := 0; n <= k; n++ {
			s.add(intHash(k))
			recorded++
		}
	}
	for k := 0; k < keys; k++ {
		if got := s.estimate(intHash(k)); int(got) != k+1 {
			t.Fatalf("estimate(%d) = %d after %d requests", k, got, k+1)
		}
	}
	filler := intHash(1 << 20)
	for ; recorded < sketchReset-1; recorded++ {
		s.add(filler)
	}
	if got := s.estimate(filler); got != 255 {
		t.Fatalf("a counter past 255 requests reads %d, want 255 (saturated)", got)
	}
	s.add(filler) // the sketchReset-th request halves everything
	if got := s.estimate(filler); got != 127 {
		t.Errorf("saturated counter after the reset = %d, want 127", got)
	}
	for k := 0; k < keys; k++ {
		if got := s.estimate(intHash(k)); int(got) != (k+1)/2 {
			t.Fatalf("estimate(%d) after the reset = %d, want %d", k, got, (k+1)/2)
		}
	}
}

// refLRU is the reference model for TestCacheMatchesReferenceLRU: a
// byte-budgeted LRU as a slice, least recently used first, with the
// cache's admission rule over its own sketch fed the same requests.
type refLRU struct {
	budget, used, evictions int64
	keys                    []int
	sizes                   []int64
	freq                    sketch
}

func (r *refLRU) find(k int) int {
	for i, rk := range r.keys {
		if rk == k {
			return i
		}
	}
	return -1
}

// touch moves entry i to the most recently used end.
func (r *refLRU) touch(i int) {
	k, n := r.keys[i], r.sizes[i]
	r.keys = append(append(r.keys[:i:i], r.keys[i+1:]...), k)
	r.sizes = append(append(r.sizes[:i:i], r.sizes[i+1:]...), n)
}

func (r *refLRU) get(k int) bool {
	if r.budget > 0 {
		r.freq.add(intHash(k))
	}
	i := r.find(k)
	if i >= 0 {
		r.touch(i)
	}
	return i >= 0
}

// admits applies the rule to a new key of n bytes: strictly more
// requests than each entry, from the LRU end, whose eviction is needed.
func (r *refLRU) admits(k int, n int64) bool {
	f := r.freq.estimate(intHash(k))
	for i, need := 0, r.used+n-r.budget; need > 0; i++ {
		if r.freq.estimate(intHash(r.keys[i])) >= f {
			return false
		}
		need -= r.sizes[i]
	}
	return true
}

func (r *refLRU) put(k int, n int64) {
	if n == 0 || n > r.budget {
		// Not cached, and the key's older frame goes with it.
		if i := r.find(k); i >= 0 {
			r.used -= r.sizes[i]
			r.keys = append(r.keys[:i:i], r.keys[i+1:]...)
			r.sizes = append(r.sizes[:i:i], r.sizes[i+1:]...)
		}
		return
	}
	if i := r.find(k); i >= 0 {
		r.used += n - r.sizes[i]
		r.sizes[i] = n
		r.touch(i)
	} else if r.admits(k, n) {
		r.keys, r.sizes, r.used = append(r.keys, k), append(r.sizes, n), r.used+n
	}
	for r.used > r.budget && len(r.keys) > 0 {
		r.used -= r.sizes[0]
		r.keys, r.sizes, r.evictions = r.keys[1:], r.sizes[1:], r.evictions+1
	}
}

// TestCacheMatchesReferenceLRU runs random Get/Put/Contains sequences over
// budgets from disabled to roomy against refLRU and, after every
// operation, checks the hit, residency, order, byte, eviction and gauge
// accounting agree. Most puts follow a get of the same key, as a
// server's miss does, so admission is exercised both ways.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := 4000
	if testing.Short() {
		ops = 400
	}
	for _, budget := range []int64{-1, 0, 1, 7, 16, 64, 1000} {
		reg := telemetry.NewRegistry()
		evictions, used := reg.Counter("evictions"), reg.Gauge("used")
		c := NewCache(budget, intHash, evictions, used)
		ref := &refLRU{budget: budget}
		var hits, refHits, admitted, rejected int
		for i := 0; i < ops; i++ {
			k := rng.Intn(12)
			switch rng.Intn(3) {
			case 0:
				n := rng.Intn(20)
				in := c.Contains(k)
				c.Put(k, make([]byte, n), fmt.Sprintf("f%d-%d.png", k, n))
				ref.put(k, int64(n))
				switch {
				case in || n == 0 || int64(n) > budget:
				case c.Contains(k):
					admitted++
				default:
					rejected++
				}
			case 1:
				data, file, ok := c.Get(k)
				if ok {
					hits++
					if want := fmt.Sprintf("f%d-%d.png", k, len(data)); file != want {
						t.Fatalf("budget %d op %d: Get(%d) file %q, want %q", budget, i, k, file, want)
					}
				}
				if ref.get(k) {
					refHits++
				}
			case 2:
				if got, want := c.Contains(k), ref.find(k) >= 0; got != want {
					t.Fatalf("budget %d op %d: Contains(%d) = %v, want %v", budget, i, k, got, want)
				}
			}
			if hits != refHits || c.Len() != len(ref.keys) || c.Bytes() != ref.used ||
				used.Value() != ref.used || evictions.Value() != ref.evictions {
				t.Fatalf("budget %d op %d: hits %d/%d, Len %d/%d, Bytes %d/%d, gauge %d, evictions %d/%d (cache/reference)",
					budget, i, hits, refHits, c.Len(), len(ref.keys), c.Bytes(), ref.used,
					used.Value(), evictions.Value(), ref.evictions)
			}
			if got := residentLRUFirst(c); !slices.Equal(got, ref.keys) {
				t.Fatalf("budget %d op %d: LRU order %v differs from reference %v", budget, i, got, ref.keys)
			}
		}
		t.Logf("budget %d: %d hits, %d admitted, %d turned away, %d evictions", budget, hits, admitted, rejected, evictions.Value())
		if budget >= 7 && budget <= 64 && (admitted == 0 || rejected == 0) {
			t.Errorf("budget %d: %d admitted, %d turned away — admission not exercised both ways", budget, admitted, rejected)
		}
	}
}

// TestCacheModel drives random Get/Put/Contains calls against a map of
// the last Put per key and checks the three promises a server leans on:
// the resident bytes never exceed the budget; a Get hit returns exactly
// the bytes and file name of the last Put for that key (every Put carries
// a file name no other Put has); and Contains moves nothing, so the key
// evicted next — the whole LRU order — is what it was before the probe.
// Sizes run from empty to past the budget, so re-puts that are not cached
// are exercised too.
func TestCacheModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ops := 5000
	if testing.Short() {
		ops = 500
	}
	for _, budget := range []int64{-1, 0, 8, 40, 200} {
		c := NewCache(budget, intHash, nil, nil)
		type put struct {
			data []byte
			file string
		}
		last := map[int]put{}
		hits := 0
		for i := 0; i < ops; i++ {
			k := rng.Intn(16)
			switch rng.Intn(3) {
			case 0:
				p := put{data: make([]byte, rng.Intn(48)), file: fmt.Sprintf("put%d", i)}
				rng.Read(p.data)
				c.Put(k, p.data, p.file)
				last[k] = p
			case 1:
				data, file, ok := c.Get(k)
				if !ok {
					break
				}
				hits++
				if want := last[k]; file != want.file || !slices.Equal(data, want.data) {
					t.Fatalf("budget %d op %d: Get(%d) = %q (%d bytes), last Put was %q (%d bytes)",
						budget, i, k, file, len(data), want.file, len(want.data))
				}
			case 2:
				before := residentLRUFirst(c)
				in := c.Contains(k)
				if after := residentLRUFirst(c); !slices.Equal(after, before) {
					t.Fatalf("budget %d op %d: Contains(%d) reordered the LRU %v -> %v", budget, i, k, before, after)
				}
				if in != slices.Contains(before, k) {
					t.Fatalf("budget %d op %d: Contains(%d) = %v, resident %v", budget, i, k, in, before)
				}
			}
			if used := c.Bytes(); used > max(budget, 0) {
				t.Fatalf("budget %d op %d: %d bytes resident", budget, i, used)
			}
		}
		if budget >= 40 && hits == 0 {
			t.Errorf("budget %d: no Get hit in %d operations", budget, ops)
		}
	}
}

// TestCacheResistsScans: a hot set, each key requested three times,
// survives one sweep over a thousand cold keys — which a plain LRU of the
// same budget would have flushed entirely — and the sweep evicts nothing.
func TestCacheResistsScans(t *testing.T) {
	const hot, frame = 8, 16
	evictions := telemetry.NewRegistry().Counter("evictions")
	c := NewCache(hot*frame, intHash, evictions, nil)
	request := func(k int) {
		if _, _, ok := c.Get(k); !ok {
			c.Put(k, make([]byte, frame), "")
		}
	}
	for round := 0; round < 3; round++ {
		for k := 0; k < hot; k++ {
			request(k)
		}
	}
	for k := 1000; k < 2000; k++ {
		request(k)
	}
	for k := 0; k < hot; k++ {
		if !c.Contains(k) {
			t.Errorf("hot key %d evicted by a scan", k)
		}
	}
	if got := evictions.Value(); got != 0 {
		t.Errorf("the scan evicted %d entries, want 0", got)
	}
}

// TestFrameQueryRouteRoundTrips pins Route as ParseFrameQuery's inverse:
// whatever a gateway parsed is what the node it forwards to parses.
func TestFrameQueryRouteRoundTrips(t *testing.T) {
	for _, q := range []FrameQuery{
		{Key: cinemastore.Key{Variable: "ow"}},
		{Key: cinemastore.Key{Variable: "a b&c=d", Time: 1e21, Phi: -0.1, Theta: 1.0 / 3}, Nearest: true},
		{Key: cinemastore.Key{Variable: "ow", Time: 2.5}, CacheOnly: true},
		{File: "ow_000012.png"},
		{File: "odd name?&#%.png", CacheOnly: true},
	} {
		u, err := url.Parse("/" + q.Route())
		if err != nil {
			t.Fatalf("%+v: Route %q does not parse: %v", q, q.Route(), err)
		}
		got, ok, err := ParseFrameQuery(strings.TrimPrefix(u.Path, "/"), u.RawQuery)
		if !ok || err != nil || got != q {
			t.Errorf("%+v -> %q -> %+v (ok %v, err %v)", q, q.Route(), got, ok, err)
		}
	}
}

// TestCacheAdmissionReplays: one Zipf request sequence over 50 000 keys —
// far more than a sketch row's 4 096 counters, so collisions decide many
// admissions — run on two fresh caches leaves the same entries in the
// same LRU order after the same hits. Nothing but the caller's hash
// function seeds the sketch; a per-cache random seed fails this.
func TestCacheAdmissionReplays(t *testing.T) {
	run := func() ([]int, int) {
		c := NewCache(512, intHash, nil, nil)
		zipf := rand.NewZipf(rand.New(rand.NewSource(9)), 1.05, 1, 50000)
		hits := 0
		for i := 0; i < 100000; i++ {
			k := int(zipf.Uint64())
			if _, _, ok := c.Get(k); ok {
				hits++
			} else {
				c.Put(k, []byte{1}, "")
			}
		}
		return residentLRUFirst(c), hits
	}
	keys1, hits1 := run()
	keys2, hits2 := run()
	if hits1 != hits2 || !slices.Equal(keys1, keys2) {
		t.Errorf("two runs of one sequence differ: %d vs %d hits, %d vs %d residents, same order %v",
			hits1, hits2, len(keys1), len(keys2), slices.Equal(keys1, keys2))
	}
}
