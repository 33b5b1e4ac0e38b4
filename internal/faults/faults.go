// Package faults is the deterministic fault injector of the coupled
// stack: a seed-driven Plan of scheduled or probabilistic faults that
// every resilience-bearing layer (lustre, the live render loop, the
// Cinema store and query server) consults through a nil-safe handle.
//
// The paper's what-if analysis extrapolates to 100-year production
// campaigns, where node failures, storage stalls, and torn writes are
// routine; SIM-SITU (Honoré et al.) argues a faithful in-situ simulation
// must model the platform's failure behavior, not just its happy path.
// This package makes failure a first-class, testable input: the same
// seed always yields the same faults, so a chaos run is as reproducible
// as a clean one.
//
// The injector inherits the observability substrate's contracts:
//
//   - Nil safety and zero overhead when disabled. A nil *Injector
//     returns nil *Site handles, and every hot-path method no-ops on a
//     nil receiver, so call sites are wired unconditionally and a run
//     without a fault plan pays one pointer test per consult.
//
//   - Determinism independent of interleaving. Whether occurrence n of
//     a site draws a fault depends only on (seed, site, rule, n) — a
//     keyed hash, not a shared PRNG stream — so sites never perturb
//     each other and a site consulted in a deterministic order yields a
//     deterministic fault sequence regardless of what other sites do.
//
//   - A byte-stable fault log. Every injected fault is recorded and
//     WriteLog renders the log sorted by (site, occurrence); two runs
//     of the same plan against the same consult order produce
//     byte-identical logs, which is what the CI chaos-smoke job pins.
//
// Site names are flat strings owned by the consulting component, like
// telemetry metric names: "lustre.write", "lustre.read", "render.rank",
// "viz.sample", "cinema.commit", "serve.read".
package faults

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"insituviz/internal/units"
)

// Kind classifies what an injected fault does to the consulting
// operation.
type Kind uint8

// The fault kinds of the model.
const (
	// KindError fails the operation transiently; the layer's retry
	// policy decides whether it is retried.
	KindError Kind = 1 + iota
	// KindStall delays the operation by the fault's Stall duration
	// (simulated time) without failing it.
	KindStall
	// KindCrash kills the consulting component (a render rank) for the
	// rest of the run; surviving peers take over its work.
	KindCrash
	// KindTorn tears a write mid-flight: the destination is left with a
	// corrupt prefix, the failure mode the store's repair path recovers.
	KindTorn
	// KindCorrupt silently corrupts the bytes a read returns — a flipped
	// bit or a truncated tail — without failing the operation. The
	// consulting layer sees a successful read of wrong data; only digest
	// verification catches it.
	KindCorrupt
)

// String names the kind in the fault log.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindStall:
		return "stall"
	case KindCrash:
		return "crash"
	case KindTorn:
		return "torn"
	case KindCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Rule schedules faults at one site. A rule fires at occurrence n when n
// is listed in At, or when the keyed hash of (seed, site, rule, n) falls
// below Prob — both subject to the Count cap. The first matching rule of
// a site wins for a given occurrence.
type Rule struct {
	// Site is the consulting site's exact name.
	Site string
	// Kind is the fault to inject.
	Kind Kind
	// Prob is the per-occurrence probability ([0, 1]) of a hash-driven
	// fire; zero means only the scheduled occurrences fire.
	Prob float64
	// At lists scheduled occurrence numbers (1-based) that always fire.
	At []uint64
	// Count caps how many times this rule fires in total; zero is
	// unlimited.
	Count int
	// Stall is the injected delay for KindStall faults (simulated
	// seconds); ignored by other kinds.
	Stall units.Seconds
}

// Validate rejects rules that cannot be evaluated deterministically.
func (r Rule) Validate() error {
	if r.Site == "" {
		return fmt.Errorf("faults: rule with empty site")
	}
	if r.Kind < KindError || r.Kind > KindCorrupt {
		return fmt.Errorf("faults: rule for %q has unknown kind %d", r.Site, r.Kind)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("faults: rule for %q has probability %v outside [0, 1]", r.Site, r.Prob)
	}
	if r.Prob == 0 && len(r.At) == 0 {
		return fmt.Errorf("faults: rule for %q can never fire (no probability, no schedule)", r.Site)
	}
	if r.Kind == KindStall && r.Stall <= 0 {
		return fmt.Errorf("faults: stall rule for %q needs a positive duration", r.Site)
	}
	if r.Count < 0 {
		return fmt.Errorf("faults: rule for %q has negative count", r.Site)
	}
	for _, n := range r.At {
		if n == 0 {
			return fmt.Errorf("faults: rule for %q schedules occurrence 0 (occurrences are 1-based)", r.Site)
		}
	}
	return nil
}

// Plan is one complete fault scenario: the seed driving every
// probabilistic decision plus the rules to evaluate.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// Validate checks every rule.
func (p Plan) Validate() error {
	for i, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("faults: rule %d: %w", i, err)
		}
	}
	return nil
}

// Fault is one injected fault: the site, the 1-based occurrence number
// at that site, and what happened.
type Fault struct {
	Site  string
	Seq   uint64
	Kind  Kind
	Stall units.Seconds
}

// Injector evaluates a Plan. Safe for concurrent use; decisions depend
// only on (seed, site, rule, occurrence), never on cross-site ordering.
type Injector struct {
	seed uint64

	mu    sync.Mutex
	sites map[string]*Site
	rules []Rule
	log   []Fault
}

// New builds an injector for the plan.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		seed:  plan.Seed,
		sites: map[string]*Site{},
		rules: append([]Rule(nil), plan.Rules...),
	}, nil
}

// Seed returns the plan's seed; 0 on a nil injector.
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Site returns the handle for one consult point, creating it on first
// use (rule matching happens here, not on the hot path). Returns nil on
// a nil injector; a nil *Site never injects and costs one pointer test.
func (in *Injector) Site(name string) *Site {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.sites[name]; ok {
		return s
	}
	s := &Site{name: name, inj: in}
	for i, r := range in.rules {
		if r.Site != name {
			continue
		}
		sr := &siteRule{rule: r, salt: uint64(i)}
		if len(r.At) > 0 {
			sr.at = make(map[uint64]bool, len(r.At))
			for _, n := range r.At {
				sr.at[n] = true
			}
		}
		s.rules = append(s.rules, sr)
	}
	in.sites[name] = s
	return s
}

// record appends a fired fault to the log.
func (in *Injector) record(f Fault) {
	in.mu.Lock()
	in.log = append(in.log, f)
	in.mu.Unlock()
}

// Fired returns the number of faults injected so far; 0 on nil.
func (in *Injector) Fired() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.log)
}

// Log returns the injected faults sorted by (site, occurrence) — the
// canonical order WriteLog renders. Returns nil on a nil injector.
func (in *Injector) Log() []Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	out := append([]Fault(nil), in.log...)
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteLog renders the fault log in its canonical order. The rendering
// is byte-stable: two runs injecting identical faults produce identical
// bytes, regardless of the wall-clock interleaving that recorded them.
func (in *Injector) WriteLog(w io.Writer) error {
	for _, f := range in.Log() {
		var err error
		if f.Kind == KindStall {
			_, err = fmt.Fprintf(w, "fault %s #%d %s stall=%s\n", f.Site, f.Seq, f.Kind,
				strconv.FormatFloat(float64(f.Stall), 'g', -1, 64))
		} else {
			_, err = fmt.Fprintf(w, "fault %s #%d %s\n", f.Site, f.Seq, f.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Uniform returns a deterministic uniform draw in [0, 1) keyed on
// (seed, name, n) — the randomness source for backoff jitter and torn
// offsets, so those too are reproducible. Returns 0 on a nil injector.
func (in *Injector) Uniform(name string, n uint64) float64 {
	if in == nil {
		return 0
	}
	return uniform(in.seed, FNV64a(name), 1<<62, n)
}

// siteRule is one rule bound to a site, with its fire-count state.
type siteRule struct {
	rule  Rule
	salt  uint64 // rule index in the plan, keying the hash
	at    map[uint64]bool
	fired atomic.Int64
}

// Site is one consult point's handle. Occurrence numbers are assigned
// atomically per site; when the site is consulted in a deterministic
// order (the live driver loop, a storage operation sequence), the fault
// sequence is deterministic too.
type Site struct {
	name  string
	inj   *Injector
	rules []*siteRule
	seq   atomic.Uint64
}

// Next advances the site's occurrence counter and reports whether a
// fault fires at this occurrence. A nil Site (no injector, or no rules
// matched) never fires and performs no atomic operations beyond the nil
// test.
func (s *Site) Next() (Fault, bool) {
	if s == nil || len(s.rules) == 0 {
		return Fault{}, false
	}
	n := s.seq.Add(1)
	for _, sr := range s.rules {
		if !sr.matches(s.inj.seed, s.name, n) {
			continue
		}
		if sr.rule.Count > 0 {
			// Claim one of the capped fires; losing the race (or the cap)
			// falls through to the next rule.
			if c := sr.fired.Add(1); c > int64(sr.rule.Count) {
				sr.fired.Add(-1)
				continue
			}
		}
		f := Fault{Site: s.name, Seq: n, Kind: sr.rule.Kind, Stall: sr.rule.Stall}
		s.inj.record(f)
		return f, true
	}
	return Fault{}, false
}

// matches reports whether the rule fires at occurrence n, ignoring the
// fire-count cap.
func (sr *siteRule) matches(seed uint64, site string, n uint64) bool {
	if sr.at != nil && sr.at[n] {
		return true
	}
	return sr.rule.Prob > 0 && uniform(seed, FNV64a(site), sr.salt, n) < sr.rule.Prob
}

// uniform maps (seed, site hash, salt, n) onto [0, 1) — a keyed hash,
// not a stream, so draws are order-free.
func uniform(seed, siteHash, salt, n uint64) float64 {
	x := Mix64(seed ^ siteHash ^ (salt * 0xbf58476d1ce4e5b9) ^ (n * 0x9e3779b97f4a7c15))
	return float64(x>>11) / (1 << 53)
}

// Mix64 is the splitmix64 finalizer: an avalanche step that spreads
// every input bit over the whole word. Endian- and architecture-
// independent, which fault-plan and ring-placement determinism require.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// FNV64a is the 64-bit FNV-1a hash of s.
func FNV64a[T string | []byte](s T) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// ParseSpec parses the CLI chaos specification "seed=N[,profile]" into a
// plan: a decimal seed plus an optional named profile (default
// "default"). The empty spec is an error — arming chaos must be explicit
// — and so is a spec naming two seeds or two profiles, which would
// otherwise arm only the last of each.
func ParseSpec(spec string) (Plan, error) {
	if spec == "" {
		return Plan{}, fmt.Errorf("faults: empty chaos spec (want seed=N[,profile])")
	}
	parts := strings.Split(spec, ",")
	profile := ""
	var seed uint64
	var haveSeed bool
	for _, p := range parts {
		p = strings.TrimSpace(p)
		switch {
		case strings.HasPrefix(p, "seed="):
			if haveSeed {
				return Plan{}, fmt.Errorf("faults: chaos spec %q has more than one seed", spec)
			}
			v, err := strconv.ParseUint(strings.TrimPrefix(p, "seed="), 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: bad seed in %q: %w", spec, err)
			}
			seed, haveSeed = v, true
		case p == "":
		default:
			if profile != "" {
				return Plan{}, fmt.Errorf("faults: chaos spec %q names more than one profile", spec)
			}
			profile = p
		}
	}
	if !haveSeed {
		return Plan{}, fmt.Errorf("faults: chaos spec %q has no seed=N", spec)
	}
	if profile == "" {
		profile = "default"
	}
	return Profile(profile, seed)
}

// ProfileNames lists the built-in chaos profiles.
func ProfileNames() []string {
	return []string{"default", "storage", "serve", "cluster", "transit", "heavy"}
}

// UnknownProfileError reports a chaos profile name that is not one of the
// built-in plans, carrying the valid set so CLIs and tests can surface it
// without re-deriving the profile list.
type UnknownProfileError struct {
	Name  string
	Valid []string
}

func (e *UnknownProfileError) Error() string {
	return fmt.Sprintf("faults: unknown profile %q (want one of %s)",
		e.Name, strings.Join(e.Valid, ", "))
}

// Profile returns a named built-in plan with the given seed:
//
//   - "default" exercises the live coupled stack: one scheduled render-
//     rank crash, probabilistic (plus one scheduled) viz-sample stalls
//     that blow a sub-second deadline, and one torn Cinema index commit.
//   - "storage" exercises the simulated Lustre rack and the store's
//     integrity layer: transient write and read errors, multi-second
//     data-path stalls, silent bit-rot and truncation on frame reads,
//     and one torn manifest append.
//   - "serve" exercises the query server: a burst of failed store reads
//     that trips the per-store circuit breaker.
//   - "cluster" exercises the serving gateway: a scheduled burst plus a
//     probabilistic trickle of failed peer fetches, driving replica
//     failover and the per-node breakers.
//   - "transit" exercises the in-transit transport: dropped sends, wire
//     delays, and a partition window, without ever dropping a sample —
//     reconnect-with-resume must deliver all of them.
//   - "heavy" is the union of all of the above.
func Profile(name string, seed uint64) (Plan, error) {
	live := []Rule{
		{Site: "render.rank", Kind: KindCrash, At: []uint64{4}, Count: 1},
		{Site: "viz.sample", Kind: KindStall, Prob: 0.25, At: []uint64{3}, Stall: 1.0},
		{Site: "cinema.commit", Kind: KindTorn, At: []uint64{1}, Count: 1},
		// Scheduled I/O stall on the live store-commit path, late enough
		// that short chaos-smoke runs (4 samples) never reach it; longer
		// model-smoke runs do, and the live model must surface it as a
		// deterministic "io" anomaly. Appended last: rule salts are
		// positional, so earlier rules keep their byte-identical logs.
		{Site: "live.io", Kind: KindStall, At: []uint64{4}, Stall: 3.0, Count: 1},
	}
	storage := []Rule{
		{Site: "lustre.write", Kind: KindError, Prob: 0.15},
		{Site: "lustre.write", Kind: KindStall, Prob: 0.05, Stall: 2.0},
		{Site: "lustre.read", Kind: KindError, Prob: 0.10},
		// Integrity faults, appended after the lustre rules so their
		// positional salts leave the older rules' byte-identical logs
		// intact: silent bit-rot and truncation on store reads, and one
		// torn manifest append that the ledger's retry path must recover.
		{Site: "store.bitrot", Kind: KindCorrupt, Prob: 0.10, At: []uint64{3}},
		{Site: "store.truncate", Kind: KindCorrupt, At: []uint64{5}, Count: 1},
		{Site: "manifest.torn", Kind: KindTorn, At: []uint64{1}, Count: 1},
	}
	serve := []Rule{
		{Site: "serve.read", Kind: KindError, At: []uint64{1, 2, 3, 4, 5, 6, 7, 8}, Count: 8},
	}
	cluster := []Rule{
		{Site: "cluster.peer", Kind: KindError, At: []uint64{2, 3, 5, 8, 13}, Count: 5},
		{Site: "cluster.peer", Kind: KindError, Prob: 0.02},
	}
	// The transit profile exercises only the transport: dropped sends,
	// wire delays, and a short partition window. It deliberately contains
	// no sample-dropping rules (viz.sample, render.rank), so a tcp chaos
	// run must recover every sample and still commit a store byte-identical
	// to a clean inproc run — that is the reconnect-with-resume contract.
	transit := []Rule{
		{Site: "transit.drop", Kind: KindError, At: []uint64{2}, Prob: 0.10},
		{Site: "transit.delay", Kind: KindStall, Prob: 0.15, Stall: 0.5},
		{Site: "transit.partition", Kind: KindError, At: []uint64{3}, Count: 1},
	}
	p := Plan{Seed: seed}
	switch name {
	case "", "default":
		p.Rules = live
	case "storage":
		p.Rules = storage
	case "serve":
		p.Rules = serve
	case "cluster":
		p.Rules = cluster
	case "transit":
		p.Rules = transit
	case "heavy":
		p.Rules = append(append(append(append(append([]Rule{},
			live...), storage...), serve...), cluster...), transit...)
	default:
		return Plan{}, &UnknownProfileError{Name: name, Valid: ProfileNames()}
	}
	return p, nil
}
