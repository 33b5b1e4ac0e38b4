package faults

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func mustNew(t *testing.T, p Plan) *Injector {
	t.Helper()
	in, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return in
}

// drive runs one deterministic consult schedule against an injector and
// returns its rendered fault log.
func drive(t *testing.T, in *Injector) string {
	t.Helper()
	a := in.Site("alpha")
	b := in.Site("beta")
	for i := 0; i < 64; i++ {
		a.Next()
		b.Next()
	}
	var buf bytes.Buffer
	if err := in.WriteLog(&buf); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	return buf.String()
}

func TestDeterministicLog(t *testing.T) {
	plan := Plan{Seed: 7, Rules: []Rule{
		{Site: "alpha", Kind: KindError, Prob: 0.3},
		{Site: "beta", Kind: KindStall, Prob: 0.2, Stall: 1.5},
	}}
	first := drive(t, mustNew(t, plan))
	second := drive(t, mustNew(t, plan))
	if first != second {
		t.Fatalf("same plan, different logs:\n%s\nvs\n%s", first, second)
	}
	if first == "" {
		t.Fatal("probabilistic plan injected nothing in 64 occurrences")
	}
	if other := drive(t, mustNew(t, Plan{Seed: 8, Rules: plan.Rules})); other == first {
		t.Error("different seeds produced identical logs")
	}
}

// TestOrderIndependence: a site's fault sequence must not depend on how
// other sites interleave with it.
func TestOrderIndependence(t *testing.T) {
	plan := Plan{Seed: 11, Rules: []Rule{
		{Site: "alpha", Kind: KindError, Prob: 0.4},
		{Site: "beta", Kind: KindError, Prob: 0.4},
	}}

	seq := func(interleaved bool) []Fault {
		in := mustNew(t, plan)
		a, b := in.Site("alpha"), in.Site("beta")
		if interleaved {
			for i := 0; i < 32; i++ {
				a.Next()
				b.Next()
			}
		} else {
			for i := 0; i < 32; i++ {
				b.Next()
			}
			for i := 0; i < 32; i++ {
				a.Next()
			}
		}
		var out []Fault
		for _, f := range in.Log() {
			if f.Site == "alpha" {
				out = append(out, f)
			}
		}
		return out
	}

	x, y := seq(true), seq(false)
	if len(x) != len(y) {
		t.Fatalf("alpha fired %d vs %d faults across interleavings", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Errorf("fault %d differs: %+v vs %+v", i, x[i], y[i])
		}
	}
}

func TestScheduledAtAndCount(t *testing.T) {
	in := mustNew(t, Plan{Seed: 1, Rules: []Rule{
		{Site: "s", Kind: KindCrash, At: []uint64{2, 5, 9}, Count: 2},
	}})
	s := in.Site("s")
	var fired []uint64
	for i := 0; i < 16; i++ {
		if f, ok := s.Next(); ok {
			if f.Kind != KindCrash {
				t.Errorf("kind = %v", f.Kind)
			}
			fired = append(fired, f.Seq)
		}
	}
	// Occurrences 2 and 5 fire; 9 is blocked by Count: 2.
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Fatalf("fired at %v, want [2 5]", fired)
	}
}

func TestFirstRuleWins(t *testing.T) {
	in := mustNew(t, Plan{Seed: 1, Rules: []Rule{
		{Site: "s", Kind: KindError, At: []uint64{3}},
		{Site: "s", Kind: KindStall, At: []uint64{3, 4}, Stall: 2},
	}})
	s := in.Site("s")
	var kinds []Kind
	for i := 0; i < 4; i++ {
		if f, ok := s.Next(); ok {
			kinds = append(kinds, f.Kind)
		}
	}
	if len(kinds) != 2 || kinds[0] != KindError || kinds[1] != KindStall {
		t.Fatalf("kinds = %v, want [error stall]", kinds)
	}
}

func TestCountCapUnderConcurrency(t *testing.T) {
	in := mustNew(t, Plan{Seed: 1, Rules: []Rule{
		{Site: "s", Kind: KindError, Prob: 1, Count: 5},
	}})
	s := in.Site("s")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Next()
			}
		}()
	}
	wg.Wait()
	if got := in.Fired(); got != 5 {
		t.Errorf("fired %d faults, want exactly the count cap 5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var in *Injector
	s := in.Site("anything")
	if s != nil {
		t.Fatal("nil injector returned non-nil site")
	}
	if _, ok := s.Next(); ok {
		t.Error("nil site fired")
	}
	if in.Seed() != 0 || in.Fired() != 0 || in.Log() != nil {
		t.Error("nil accessors not zero-valued")
	}
	if in.Uniform("x", 1) != 0 {
		t.Error("nil Uniform != 0")
	}
	var buf bytes.Buffer
	if err := in.WriteLog(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteLog: err=%v len=%d", err, buf.Len())
	}
}

func TestDisabledPathAllocsFree(t *testing.T) {
	var s *Site
	if n := testing.AllocsPerRun(1000, func() { s.Next() }); n != 0 {
		t.Errorf("nil Site.Next allocates %v/op", n)
	}
	// A site with no matching rules is also free of allocations.
	in := mustNew(t, Plan{Seed: 1, Rules: []Rule{{Site: "other", Kind: KindError, Prob: 1}}})
	quiet := in.Site("quiet")
	if n := testing.AllocsPerRun(1000, func() { quiet.Next() }); n != 0 {
		t.Errorf("ruleless Site.Next allocates %v/op", n)
	}
}

func TestArmedNonFiringAllocsFree(t *testing.T) {
	in := mustNew(t, Plan{Seed: 1, Rules: []Rule{
		{Site: "s", Kind: KindError, At: []uint64{1 << 40}},
	}})
	s := in.Site("s")
	if n := testing.AllocsPerRun(1000, func() { s.Next() }); n != 0 {
		t.Errorf("non-firing armed Site.Next allocates %v/op", n)
	}
}

func TestUniformDeterministicAndBounded(t *testing.T) {
	in := mustNew(t, Plan{Seed: 42})
	for n := uint64(0); n < 1000; n++ {
		u := in.Uniform("jitter", n)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform(jitter, %d) = %v outside [0, 1)", n, u)
		}
		if u != in.Uniform("jitter", n) {
			t.Fatalf("Uniform(jitter, %d) not deterministic", n)
		}
	}
	// Sanity: draws are not degenerate.
	var sum float64
	for n := uint64(0); n < 1000; n++ {
		sum += in.Uniform("jitter", n)
	}
	if mean := sum / 1000; mean < 0.4 || mean > 0.6 {
		t.Errorf("Uniform mean over 1000 draws = %v, want ~0.5", mean)
	}
}

func TestWriteLogFormat(t *testing.T) {
	in := mustNew(t, Plan{Seed: 1, Rules: []Rule{
		{Site: "b.site", Kind: KindStall, At: []uint64{1}, Stall: 0.25},
		{Site: "a.site", Kind: KindError, At: []uint64{2}},
	}})
	b := in.Site("b.site")
	a := in.Site("a.site")
	b.Next()
	a.Next()
	a.Next()
	var buf bytes.Buffer
	if err := in.WriteLog(&buf); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	want := "fault a.site #2 error\nfault b.site #1 stall stall=0.25\n"
	if buf.String() != want {
		t.Errorf("log = %q, want %q", buf.String(), want)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]Rule{
		"empty site":     {Kind: KindError, Prob: 0.5},
		"bad kind":       {Site: "s", Kind: 0, Prob: 0.5},
		"prob over 1":    {Site: "s", Kind: KindError, Prob: 1.5},
		"never fires":    {Site: "s", Kind: KindError},
		"stall no dur":   {Site: "s", Kind: KindStall, Prob: 0.5},
		"negative count": {Site: "s", Kind: KindError, Prob: 0.5, Count: -1},
		"occurrence 0":   {Site: "s", Kind: KindError, At: []uint64{0}},
	}
	for name, r := range cases {
		if _, err := New(Plan{Seed: 1, Rules: []Rule{r}}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestParseSpec's specs, which also seed FuzzParseSpec.
var (
	parseSpecAccepts = []string{"seed=7", "seed=9,storage"}
	parseSpecRejects = []string{"", "seed=x", "profile", "seed=1,nosuch",
		"seed=1,seed=2", "seed=7,storage,transit", "seed=7,default,default"}
)

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("seed=7")
	if err != nil || p.Seed != 7 || len(p.Rules) == 0 {
		t.Fatalf("ParseSpec(seed=7) = %+v, %v", p, err)
	}
	p, err = ParseSpec("seed=9,storage")
	if err != nil || p.Seed != 9 {
		t.Fatalf("ParseSpec(seed=9,storage) = %+v, %v", p, err)
	}
	storageSites := map[string]bool{
		"lustre.write": true, "lustre.read": true,
		"store.bitrot": true, "store.truncate": true, "manifest.torn": true,
	}
	for _, r := range p.Rules {
		if !storageSites[r.Site] {
			t.Errorf("storage profile has site %q", r.Site)
		}
	}
	for _, bad := range parseSpecRejects {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): accepted", bad)
		}
	}
}

// FuzzParseSpec: ParseSpec never panics, and a spec it accepts names
// exactly one seed and at most one profile, and yields the plan Profile
// builds from them.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range append(append([]string{}, parseSpecAccepts...), parseSpecRejects...) {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			return
		}
		var seeds, names []string
		for _, part := range strings.Split(spec, ",") {
			part = strings.TrimSpace(part)
			switch {
			case strings.HasPrefix(part, "seed="):
				seeds = append(seeds, strings.TrimPrefix(part, "seed="))
			case part != "":
				names = append(names, part)
			}
		}
		if len(seeds) != 1 || len(names) > 1 {
			t.Fatalf("ParseSpec(%q) accepted seeds %q and profiles %q", spec, seeds, names)
		}
		seed, err := strconv.ParseUint(seeds[0], 10, 64)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted seed %q: %v", spec, seeds[0], err)
		}
		name := "default"
		if len(names) == 1 {
			name = names[0]
		}
		want, err := Profile(name, seed)
		if err != nil || !reflect.DeepEqual(p, want) {
			t.Fatalf("ParseSpec(%q) = %+v, want Profile(%q, %d) = %+v, %v", spec, p, name, seed, want, err)
		}
	})
}

func TestUnknownProfileTyped(t *testing.T) {
	_, err := Profile("nosuch", 1)
	var upe *UnknownProfileError
	if !errors.As(err, &upe) {
		t.Fatalf("Profile(nosuch) error %T %v, want *UnknownProfileError", err, err)
	}
	if upe.Name != "nosuch" {
		t.Errorf("Name = %q, want nosuch", upe.Name)
	}
	if got, want := fmt.Sprint(upe.Valid), fmt.Sprint(ProfileNames()); got != want {
		t.Errorf("Valid = %v, want %v", got, want)
	}
	for _, name := range ProfileNames() {
		if !strings.Contains(upe.Error(), name) {
			t.Errorf("error %q does not list profile %q", upe.Error(), name)
		}
	}
	// ParseSpec surfaces the same typed error.
	if _, err := ParseSpec("seed=1,nosuch"); !errors.As(err, &upe) {
		t.Errorf("ParseSpec error %T %v, want *UnknownProfileError", err, err)
	}
}

func TestTransitProfileSites(t *testing.T) {
	p, err := Profile("transit", 7)
	if err != nil {
		t.Fatalf("Profile(transit): %v", err)
	}
	want := map[string]bool{"transit.drop": false, "transit.delay": false, "transit.partition": false}
	for _, r := range p.Rules {
		if _, ok := want[r.Site]; !ok {
			t.Errorf("transit profile has unexpected site %q (must not drop samples)", r.Site)
			continue
		}
		want[r.Site] = true
	}
	for site, seen := range want {
		if !seen {
			t.Errorf("transit profile missing site %q", site)
		}
	}
	// Heavy includes the transit sites too.
	h, err := Profile("heavy", 7)
	if err != nil {
		t.Fatalf("Profile(heavy): %v", err)
	}
	found := false
	for _, r := range h.Rules {
		if strings.HasPrefix(r.Site, "transit.") {
			found = true
		}
	}
	if !found {
		t.Error("heavy profile does not include transit rules")
	}
}

func TestProfilesValidate(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := Profile(name, 7)
		if err != nil {
			t.Fatalf("Profile(%s): %v", name, err)
		}
		if _, err := New(p); err != nil {
			t.Errorf("profile %s does not validate: %v", name, err)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindError: "error", KindStall: "stall", KindCrash: "crash", KindTorn: "torn",
		KindCorrupt: "corrupt",
		Kind(99):    fmt.Sprintf("kind(%d)", 99),
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
