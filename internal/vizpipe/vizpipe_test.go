package vizpipe

import (
	"math"
	"strings"
	"testing"

	"insituviz/internal/mesh"
)

func testDataset(t testing.TB) *Dataset {
	t.Helper()
	m, err := mesh.NewIcosphere(2, mesh.EarthRadius)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(m, 3600)
	if err != nil {
		t.Fatal(err)
	}
	lat := make([]float64, m.NCells())
	for ci := range lat {
		lat[ci] = m.Cells[ci].Lat
	}
	if err := ds.AddField("lat", lat); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil, 0); err == nil {
		t.Error("nil mesh accepted")
	}
	ds := testDataset(t)
	if err := ds.AddField("", nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := ds.AddField("x", make([]float64, 3)); err == nil {
		t.Error("mis-sized field accepted")
	}
	if _, err := ds.Field("missing"); err == nil {
		t.Error("missing field accepted")
	}
}

func TestAddFieldCopies(t *testing.T) {
	ds := testDataset(t)
	src := make([]float64, ds.Mesh.NCells())
	src[0] = 7
	ds.AddField("v", src)
	src[0] = 99
	f, _ := ds.Field("v")
	if f[0] != 7 {
		t.Error("AddField aliases caller slice")
	}
}

func TestThreshold(t *testing.T) {
	ds := testDataset(t)
	th := &Threshold{Field: "lat", Min: 0, Max: math.Pi / 2}
	out, err := th.Apply(ds)
	if err != nil {
		t.Fatal(err)
	}
	lat, _ := out.Field("lat")
	active := 0
	for ci := range lat {
		want := lat[ci] >= 0
		if out.Active(ci) != want {
			t.Fatalf("cell %d: active=%v, lat=%v", ci, out.Active(ci), lat[ci])
		}
		if want {
			active++
		}
	}
	// Northern hemisphere holds roughly half the cells.
	frac := float64(active) / float64(out.Mesh.NCells())
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("northern fraction = %v", frac)
	}
	if _, err := (&Threshold{Field: "lat", Min: 1, Max: 0}).Apply(ds); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := (&Threshold{Field: "missing"}).Apply(ds); err == nil {
		t.Error("missing field accepted")
	}
}

func TestMaskIntersection(t *testing.T) {
	ds := testDataset(t)
	p := &Pipeline{}
	p.Append(&Threshold{Field: "lat", Min: 0, Max: math.Pi / 2}) // north
	p.Append(&Threshold{Field: "lat", Min: -1, Max: 0.5})        // lat <= 0.5
	out, err := p.Execute(ds)
	if err != nil {
		t.Fatal(err)
	}
	lat, _ := out.Field("lat")
	active := 0
	for ci := range lat {
		want := lat[ci] >= 0 && lat[ci] <= 0.5
		if out.Active(ci) != want {
			t.Fatalf("cell %d: intersection wrong (lat %v, active %v)", ci, lat[ci], out.Active(ci))
		}
		if want {
			active++
		}
	}
	if active == 0 || active == out.Mesh.NCells() {
		t.Errorf("suspicious active count %d", active)
	}
}

func TestPipelineErrors(t *testing.T) {
	p := &Pipeline{}
	if err := p.Append(nil); err == nil {
		t.Error("nil filter accepted")
	}
	if _, err := p.Execute(nil); err == nil {
		t.Error("nil dataset accepted")
	}
	ds := testDataset(t)
	p.Append(&Threshold{Field: "missing"})
	if _, err := p.Execute(ds); err == nil {
		t.Error("failing stage not propagated")
	} else if !strings.Contains(err.Error(), "stage 0") {
		t.Errorf("error lacks stage context: %v", err)
	}
}

func TestOkuboWeissStylePipeline(t *testing.T) {
	// The paper's actual filter chain: threshold the rotation-dominated
	// negative tail of a signed field.
	ds := testDataset(t)
	// Synthetic "W": strongly negative in a polar cap.
	w := make([]float64, ds.Mesh.NCells())
	for ci := range w {
		if ds.Mesh.Cells[ci].Lat > 1.2 {
			w[ci] = -5
		} else {
			w[ci] = 1
		}
	}
	ds.AddField("okubo_weiss", w)
	p := &Pipeline{}
	p.Append(&Threshold{Field: "okubo_weiss", Min: math.Inf(-1), Max: -1})
	out, err := p.Execute(ds)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range w {
		if out.Active(ci) != (ds.Mesh.Cells[ci].Lat > 1.2) {
			t.Fatalf("cell %d: selection wrong", ci)
		}
	}
	if ds.Mask != nil {
		t.Error("Execute mutated its input")
	}
}
