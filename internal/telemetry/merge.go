package telemetry

import "fmt"

// Snapshotter is anything that can produce a metric snapshot: a *Registry,
// a *Union of registries, or a test double. The trace package's HTTP
// exposition handler scrapes through this interface, so several
// components' registries can compose into one /metrics document.
type Snapshotter interface {
	Snapshot() *Snapshot
}

// Merge folds src's metrics into s with every name prefixed by prefix.
// Metric kinds are preserved. A resulting name that already exists in s —
// in any kind — is a collision and returns an error, because it would
// make the exposition ambiguous; namespacing the sources with distinct
// prefixes avoids collisions by construction. On error s is left
// unmodified. The merged snapshot renders through the same sorted-name
// exposition as any other, so byte-stability is preserved.
func (s *Snapshot) Merge(prefix string, src *Snapshot) error {
	if src == nil {
		return nil
	}
	taken := func(name string) bool {
		if _, ok := s.Counters[name]; ok {
			return true
		}
		if _, ok := s.Gauges[name]; ok {
			return true
		}
		if _, ok := s.FloatGauges[name]; ok {
			return true
		}
		_, ok := s.Histograms[name]
		return ok
	}
	for name := range src.Counters {
		if taken(prefix + name) {
			return fmt.Errorf("telemetry: merge collision on %q", prefix+name)
		}
	}
	for name := range src.Gauges {
		if taken(prefix + name) {
			return fmt.Errorf("telemetry: merge collision on %q", prefix+name)
		}
	}
	for name := range src.FloatGauges {
		if taken(prefix + name) {
			return fmt.Errorf("telemetry: merge collision on %q", prefix+name)
		}
	}
	for name := range src.Histograms {
		if taken(prefix + name) {
			return fmt.Errorf("telemetry: merge collision on %q", prefix+name)
		}
	}
	for name, v := range src.Counters {
		s.Counters[prefix+name] = v
	}
	for name, v := range src.Gauges {
		s.Gauges[prefix+name] = v
	}
	for name, v := range src.FloatGauges {
		if s.FloatGauges == nil {
			s.FloatGauges = map[string]float64{}
		}
		s.FloatGauges[prefix+name] = v
	}
	for name, v := range src.Histograms {
		s.Histograms[prefix+name] = v
	}
	return nil
}

// Union composes several snapshot sources under per-source name prefixes
// into one exposition — the live-run registry and the Cinema server's
// registry share liverun's /metrics endpoint this way. Sources are
// scraped in Add order at every Snapshot call, so the union is always as
// live as its members. The zero value is an empty union.
type Union struct {
	sources []unionSource
}

type unionSource struct {
	prefix string
	src    Snapshotter
}

// NewUnion returns an empty union.
func NewUnion() *Union { return &Union{} }

// Add registers a source whose metric names will appear under prefix
// (conventionally ending in "."; "" mounts the source un-namespaced).
// It returns the union for chaining. Nil sources are ignored.
func (u *Union) Add(prefix string, src Snapshotter) *Union {
	if src != nil {
		u.sources = append(u.sources, unionSource{prefix: prefix, src: src})
	}
	return u
}

// Snapshot scrapes every source and merges the results. A name collision
// between sources panics: like a cross-kind registration collision on a
// Registry, it is a wiring error — the fix is a distinct prefix — and
// silently dropping or overwriting a metric would corrupt the exposition.
// A nil union returns an empty snapshot.
func (u *Union) Snapshot() *Snapshot {
	out := (*Registry)(nil).Snapshot() // empty, maps allocated
	if u == nil {
		return out
	}
	for _, s := range u.sources {
		if err := out.Merge(s.prefix, s.src.Snapshot()); err != nil {
			panic(err.Error())
		}
	}
	return out
}
