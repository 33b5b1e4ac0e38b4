package cinemaserve

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/telemetry"
)

// Bytes returns the current resident frame bytes.
func (c *Cache[K]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// TestCache drives the one frame cache directly, as a script of
// operations per case, and checks residency in eviction order, the byte
// accounting and the two telemetry handles after each script.
func TestCache(t *testing.T) {
	type op struct {
		do   string // put | get | contains
		key  string
		size int
		want bool // get / contains result
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
			ops:      []op{{do: "put", key: "a", size: 4}, {do: "put", key: "b", size: 4}, {do: "put", key: "c", size: 4}},
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
			name: "re-put that grows past the budget evicts the others", budget: 10,
			ops:      []op{{do: "put", key: "a", size: 4}, {do: "put", key: "b", size: 4}, {do: "put", key: "a", size: 8}},
			wantKeys: "a", wantBytes: 8, wantEvict: 1,
		},
		{
			name: "get promotes", budget: 8,
			ops: []op{
				{do: "put", key: "a", size: 4}, {do: "put", key: "b", size: 4},
				{do: "get", key: "a", want: true}, {do: "put", key: "c", size: 4},
			},
			wantKeys: "a c", wantBytes: 8, wantEvict: 1,
		},
		{
			name: "contains does not promote", budget: 8,
			ops: []op{
				{do: "put", key: "a", size: 4}, {do: "put", key: "b", size: 4},
				{do: "contains", key: "a", want: true}, {do: "contains", key: "x", want: false},
				{do: "put", key: "c", size: 4},
			},
			wantKeys: "b c", wantBytes: 8, wantEvict: 1,
		},
		{
			name: "eviction runs from the least recently used end", budget: 12,
			ops: []op{
				{do: "put", key: "a", size: 4}, {do: "put", key: "b", size: 4}, {do: "put", key: "c", size: 4},
				{do: "get", key: "a", want: true}, {do: "put", key: "d", size: 8},
			},
			wantKeys: "a d", wantBytes: 12, wantEvict: 2,
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
			c := NewCache[string](tc.budget, evictions, used)
			for i, o := range tc.ops {
				switch o.do {
				case "put":
					c.Put(o.key, frame(o.size), o.key+".png")
					if c.Bytes() > tc.budget && tc.budget >= 0 {
						t.Fatalf("op %d: %d resident bytes exceed the budget %d", i, c.Bytes(), tc.budget)
					}
				case "get":
					data, file, ok := c.Get(o.key)
					if ok != o.want {
						t.Fatalf("op %d: Get(%q) = %v, want %v", i, o.key, ok, o.want)
					}
					if ok && (file != o.key+".png" || len(data) == 0) {
						t.Fatalf("op %d: Get(%q) = %d bytes, file %q", i, o.key, len(data), file)
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
			var keys []string
			c.mu.Lock()
			for e := c.tail; e != nil; e = e.prev {
				keys = append(keys, e.key)
			}
			c.mu.Unlock()
			if got := strings.Join(keys, " "); got != tc.wantKeys {
				t.Errorf("resident keys (LRU first) = %q, want %q", got, tc.wantKeys)
			}
			if c.Len() != len(keys) {
				t.Errorf("Len = %d, list holds %d", c.Len(), len(keys))
			}
		})
	}
}

// refLRU is the reference model for TestCacheMatchesReferenceLRU: a
// byte-budgeted LRU as a slice, least recently used first.
type refLRU struct {
	budget, used, evictions int64
	keys                    []int
	sizes                   []int64
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
	i := r.find(k)
	if i >= 0 {
		r.touch(i)
	}
	return i >= 0
}

func (r *refLRU) put(k int, n int64) {
	if n == 0 || n > r.budget {
		return
	}
	if i := r.find(k); i >= 0 {
		r.used += n - r.sizes[i]
		r.sizes[i] = n
		r.touch(i)
	} else {
		r.keys, r.sizes, r.used = append(r.keys, k), append(r.sizes, n), r.used+n
	}
	for r.used > r.budget && len(r.keys) > 0 {
		r.used -= r.sizes[0]
		r.keys, r.sizes, r.evictions = r.keys[1:], r.sizes[1:], r.evictions+1
	}
}

// TestCacheMatchesReferenceLRU runs random Get/Put/Contains sequences over
// budgets from disabled to roomy against refLRU and, after every
// operation, checks the hit, residency, byte, eviction and gauge
// accounting agree.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := 4000
	if testing.Short() {
		ops = 400
	}
	for _, budget := range []int64{-1, 0, 1, 7, 16, 64, 1000} {
		reg := telemetry.NewRegistry()
		evictions, used := reg.Counter("evictions"), reg.Gauge("used")
		c := NewCache[int](budget, evictions, used)
		ref := &refLRU{budget: budget}
		var hits, refHits int
		for i := 0; i < ops; i++ {
			k := rng.Intn(12)
			switch rng.Intn(3) {
			case 0:
				n := rng.Intn(20)
				c.Put(k, make([]byte, n), fmt.Sprintf("f%d-%d.png", k, n))
				ref.put(k, int64(n))
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
			c.mu.Lock()
			e := c.tail
			for _, want := range ref.keys {
				if e == nil || e.key != want {
					t.Fatalf("budget %d op %d: LRU order differs from reference %v", budget, i, ref.keys)
				}
				e = e.prev
			}
			c.mu.Unlock()
		}
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
