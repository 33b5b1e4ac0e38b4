package cinemaserve

import (
	"net/url"
	"strings"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/telemetry"
)

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
