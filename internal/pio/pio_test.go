package pio

import (
	"math/rand"
	"testing"
	"testing/quick"

	"insituviz/internal/units"
)

func TestNewDecompositionValidation(t *testing.T) {
	if _, err := NewDecomposition(0, 1); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := NewDecomposition(10, 0); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewDecomposition(3, 5); err == nil {
		t.Error("more ranks than elements accepted")
	}
}

func TestDecompositionCoversExactly(t *testing.T) {
	d, err := NewDecomposition(103, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d.NRanks() != 7 || d.GlobalLen() != 103 {
		t.Fatalf("basic getters wrong: %d ranks, %d len", d.NRanks(), d.GlobalLen())
	}
	prevEnd := 0
	total := 0
	for r := 0; r < 7; r++ {
		s, e, err := d.Range(r)
		if err != nil {
			t.Fatal(err)
		}
		if s != prevEnd {
			t.Fatalf("rank %d starts at %d, want %d", r, s, prevEnd)
		}
		if e <= s {
			t.Fatalf("rank %d has empty range", r)
		}
		total += e - s
		prevEnd = e
	}
	if total != 103 || prevEnd != 103 {
		t.Fatalf("coverage = %d, end = %d", total, prevEnd)
	}
	// Block sizes differ by at most one.
	s0, e0, _ := d.Range(0)
	s6, e6, _ := d.Range(6)
	if (e0-s0)-(e6-s6) > 1 {
		t.Errorf("imbalanced blocks: %d vs %d", e0-s0, e6-s6)
	}
	if _, _, err := d.Range(-1); err == nil {
		t.Error("negative rank accepted")
	}
	if _, _, err := d.Range(7); err == nil {
		t.Error("overflow rank accepted")
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	d, err := NewDecomposition(64, 6)
	if err != nil {
		t.Fatal(err)
	}
	global := make([]float64, 64)
	rng := rand.New(rand.NewSource(9))
	for i := range global {
		global[i] = rng.NormFloat64()
	}
	parts, err := d.Scatter(global)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 6 {
		t.Fatalf("parts = %d", len(parts))
	}
	p, err := NewPlan(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := p.Gather(parts, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range global {
		if got[i] != global[i] {
			t.Fatalf("gathered[%d] = %g, want %g", i, got[i], global[i])
		}
	}
	if st.AggToDiskBytes != units.Bytes(64*8) {
		t.Errorf("AggToDiskBytes = %v, want %v", st.AggToDiskBytes, 64*8)
	}
	if st.Aggregators != 2 {
		t.Errorf("Aggregators = %d", st.Aggregators)
	}
	if st.MaxFanIn != 3 {
		t.Errorf("MaxFanIn = %d, want 3", st.MaxFanIn)
	}
	if st.RankToAggBytes <= 0 || st.RankToAggBytes >= st.AggToDiskBytes {
		t.Errorf("RankToAggBytes = %v, want in (0, %v)", st.RankToAggBytes, st.AggToDiskBytes)
	}
}

func TestScatterValidation(t *testing.T) {
	d, _ := NewDecomposition(10, 2)
	if _, err := d.Scatter(make([]float64, 9)); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestNewPlanValidation(t *testing.T) {
	d, _ := NewDecomposition(10, 4)
	if _, err := NewPlan(nil, 1); err == nil {
		t.Error("nil decomposition accepted")
	}
	if _, err := NewPlan(d, 0); err == nil {
		t.Error("zero aggregators accepted")
	}
	p, err := NewPlan(d, 99)
	if err != nil {
		t.Fatal(err)
	}
	if p.nAgg != 4 {
		t.Errorf("aggregators clamped to %d, want 4", p.nAgg)
	}
}

func TestAggregatorAssignmentContiguous(t *testing.T) {
	d, _ := NewDecomposition(100, 10)
	p, _ := NewPlan(d, 3)
	prev := 0
	for r := 0; r < 10; r++ {
		a, err := p.AggregatorOf(r)
		if err != nil {
			t.Fatal(err)
		}
		if a < prev {
			t.Fatalf("aggregator assignment not monotone at rank %d", r)
		}
		prev = a
	}
	if prev != 2 {
		t.Errorf("last aggregator = %d, want 2", prev)
	}
	if _, err := p.AggregatorOf(-1); err == nil {
		t.Error("negative rank accepted")
	}
	if _, err := p.AggregatorOf(10); err == nil {
		t.Error("overflow rank accepted")
	}
}

func TestGatherValidation(t *testing.T) {
	d, _ := NewDecomposition(10, 2)
	p, _ := NewPlan(d, 1)
	if _, _, err := p.Gather(make([][]float64, 1), 8); err == nil {
		t.Error("wrong block count accepted")
	}
	parts := [][]float64{make([]float64, 5), make([]float64, 4)}
	if _, _, err := p.Gather(parts, 8); err == nil {
		t.Error("mis-sized block accepted")
	}
	parts[1] = make([]float64, 5)
	if _, _, err := p.Gather(parts, 0); err == nil {
		t.Error("zero element width accepted")
	}
}

func TestSingleAggregatorFanIn(t *testing.T) {
	d, _ := NewDecomposition(40, 8)
	p, _ := NewPlan(d, 1)
	parts, _ := d.Scatter(make([]float64, 40))
	_, st, err := p.Gather(parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxFanIn != 8 {
		t.Errorf("MaxFanIn = %d, want 8", st.MaxFanIn)
	}
	// With one aggregator, 7 of 8 ranks ship data off-node: 35 of 40
	// elements at 4 bytes each.
	if st.RankToAggBytes != units.Bytes(35*4) {
		t.Errorf("RankToAggBytes = %v, want %v", st.RankToAggBytes, 35*4)
	}
}

func TestGatherRoundTripProperty(t *testing.T) {
	f := func(seed int64, n16, r8, a8 uint8) bool {
		n := int(n16)%200 + 1
		r := int(r8)%n + 1
		a := int(a8)%r + 1
		d, err := NewDecomposition(n, r)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		global := make([]float64, n)
		for i := range global {
			global[i] = rng.NormFloat64()
		}
		parts, err := d.Scatter(global)
		if err != nil {
			return false
		}
		p, err := NewPlan(d, a)
		if err != nil {
			return false
		}
		got, _, err := p.Gather(parts, 8)
		if err != nil {
			return false
		}
		for i := range global {
			if got[i] != global[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGather(b *testing.B) {
	d, err := NewDecomposition(1<<18, 128)
	if err != nil {
		b.Fatal(err)
	}
	global := make([]float64, 1<<18)
	parts, _ := d.Scatter(global)
	p, _ := NewPlan(d, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Gather(parts, 8); err != nil {
			b.Fatal(err)
		}
	}
}
