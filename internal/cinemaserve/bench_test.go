package cinemaserve

import (
	"fmt"
	"math/rand"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/telemetry"
)

// BenchmarkCinemaServeHot is the serving hot path: a cached frame fetch.
// The contract is 0 allocs/op —
// a hit costs map lookups, an LRU promotion, and the atomic telemetry,
// nothing more.
func BenchmarkCinemaServeHot(b *testing.B) {
	st := buildStore(b, 1, 1, nil, 4<<10)
	s, _ := newTestServer(b, Config{})
	if err := s.Mount("run", st); err != nil {
		b.Fatal(err)
	}
	key := cinemastore.Key{Variable: "var0"}
	if _, _, err := s.Frame("run", key, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Frame("run", key, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCinemaLoadMixed is the realistic mixture: Zipf-skewed keys over
// a store bigger than the cache budget, so hits, coalesced misses, and
// evictions all appear in proportion. It tracks the blended cost the load
// generator (cmd/cinemaload) drives over HTTP, minus the HTTP stack.
func BenchmarkCinemaLoadMixed(b *testing.B) {
	const vars, steps, frame = 2, 16, 4 << 10
	st := buildStore(b, vars, steps, nil, frame)
	// Budget a quarter of the store: the Zipf head stays resident, the
	// tail churns.
	s, _ := newTestServer(b, Config{CacheBytes: vars * steps * frame / 4, Telemetry: telemetry.NewRegistry()})
	if err := s.Mount("run", st); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, vars*steps-1)
	keys := make([]cinemastore.Key, vars*steps)
	for v := 0; v < vars; v++ {
		for ts := 0; ts < steps; ts++ {
			keys[v*steps+ts] = cinemastore.Key{Time: float64(ts), Variable: fmt.Sprintf("var%d", v)}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Frame("run", keys[zipf.Uint64()], false); err != nil {
			b.Fatal(err)
		}
	}
}
