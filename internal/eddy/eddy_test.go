package eddy

import (
	"math"
	"testing"

	"insituviz/internal/mesh"
)

func testMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	m, err := mesh.NewIcosphere(3, mesh.EarthRadius)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// paintDisk sets w to value inside an angular radius around a center
// direction, leaving other cells untouched.
func paintDisk(m *mesh.Mesh, w []float64, center mesh.Vec3, angRadius, value float64) {
	c := center.Normalize()
	for ci := range m.Cells {
		if mesh.ArcLength(c, m.Cells[ci].Center, 1) <= angRadius {
			w[ci] = value
		}
	}
}

func TestDetectSingleEddy(t *testing.T) {
	m := testMesh(t)
	w := make([]float64, m.NCells())
	for i := range w {
		w[i] = 1 // strain-dominated background
	}
	center := mesh.FromLatLon(0.5, 1.0)
	paintDisk(m, w, center, 0.15, -5)

	eddies, err := Detect(m, w, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eddies) != 1 {
		t.Fatalf("detected %d eddies, want 1", len(eddies))
	}
	e := eddies[0]
	if e.MinW != -5 {
		t.Errorf("MinW = %v, want -5", e.MinW)
	}
	if mesh.ArcLength(e.Centroid, center, 1) > 0.1 {
		t.Errorf("centroid off by %v rad", mesh.ArcLength(e.Centroid, center, 1))
	}
	if e.Area <= 0 {
		t.Errorf("area = %v", e.Area)
	}
	// Cell list must be sorted and below threshold.
	for i := 1; i < len(e.Cells); i++ {
		if e.Cells[i] <= e.Cells[i-1] {
			t.Fatal("cells not sorted")
		}
	}
	for _, ci := range e.Cells {
		if w[ci] >= -1 {
			t.Fatalf("cell %d with w=%v included", ci, w[ci])
		}
	}
}

func TestDetectMultipleAndOrdering(t *testing.T) {
	m := testMesh(t)
	w := make([]float64, m.NCells())
	paintDisk(m, w, mesh.FromLatLon(0.8, 0), 0.25, -3)  // large
	paintDisk(m, w, mesh.FromLatLon(-0.8, 2), 0.10, -9) // small, deep
	paintDisk(m, w, mesh.FromLatLon(0, -2.5), 0.18, -2) // medium
	eddies, err := Detect(m, w, -0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eddies) != 3 {
		t.Fatalf("detected %d eddies, want 3", len(eddies))
	}
	for i := 1; i < len(eddies); i++ {
		if eddies[i].Area > eddies[i-1].Area {
			t.Fatal("eddies not ordered by descending area")
		}
	}
}

func TestDetectMinCells(t *testing.T) {
	m := testMesh(t)
	w := make([]float64, m.NCells())
	// Single-cell blob.
	w[100] = -10
	eddies, err := Detect(m, w, -1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(eddies) != 0 {
		t.Errorf("minCells=2 should reject single-cell blob, got %d", len(eddies))
	}
	eddies, err = Detect(m, w, -1, 0) // clamped to 1
	if err != nil {
		t.Fatal(err)
	}
	if len(eddies) != 1 {
		t.Errorf("minCells<=1 should accept single-cell blob, got %d", len(eddies))
	}
}

func TestDetectValidation(t *testing.T) {
	m := testMesh(t)
	if _, err := Detect(m, make([]float64, 3), -1, 1); err == nil {
		t.Error("mis-sized field accepted")
	}
	if _, err := Detect(m, make([]float64, m.NCells()), 0, 1); err == nil {
		t.Error("non-negative threshold accepted")
	}
}

func TestDetectNothing(t *testing.T) {
	m := testMesh(t)
	w := make([]float64, m.NCells())
	eddies, err := Detect(m, w, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eddies) != 0 {
		t.Errorf("quiescent field produced %d eddies", len(eddies))
	}
}

func TestTrackerFollowsMovingEddy(t *testing.T) {
	m := testMesh(t)
	tr, err := NewTracker(m.Radius, 1.5e6)
	if err != nil {
		t.Fatal(err)
	}
	// An eddy drifting eastward 0.1 rad per frame for 5 frames.
	for step := 0; step < 5; step++ {
		w := make([]float64, m.NCells())
		paintDisk(m, w, mesh.FromLatLon(0.4, 0.1*float64(step)), 0.15, -4)
		eddies, err := Detect(m, w, -1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Advance(float64(step)*3600, eddies); err != nil {
			t.Fatal(err)
		}
	}
	tracks := tr.Finish()
	if len(tracks) != 1 {
		t.Fatalf("got %d tracks, want 1", len(tracks))
	}
	tk := tracks[0]
	if len(tk.Points) != 5 {
		t.Fatalf("track has %d points, want 5", len(tk.Points))
	}
	if tk.Lifetime() != 4*3600 {
		t.Errorf("lifetime = %v, want %v", tk.Lifetime(), 4*3600)
	}
	wantDist := 0.4 * m.Radius * math.Cos(0.4) // 0.4 rad of longitude at lat 0.4
	if d := tk.Distance(m.Radius); math.Abs(d-wantDist) > 0.2*wantDist {
		t.Errorf("distance = %g, want ~%g", d, wantDist)
	}
	if !tk.Closed {
		t.Error("finished track not closed")
	}
}

func TestTrackerSeparatesDistantEddies(t *testing.T) {
	m := testMesh(t)
	tr, err := NewTracker(m.Radius, 8e5)
	if err != nil {
		t.Fatal(err)
	}
	mkFrame := func(lats ...float64) []Eddy {
		w := make([]float64, m.NCells())
		for i, lat := range lats {
			paintDisk(m, w, mesh.FromLatLon(lat, float64(i)*2), 0.12, -4)
		}
		eddies, err := Detect(m, w, -1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return eddies
	}
	if err := tr.Advance(0, mkFrame(0.7, -0.7)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Advance(3600, mkFrame(0.7, -0.7)); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.ActiveTracks()); got != 2 {
		t.Fatalf("active tracks = %d, want 2", got)
	}
	// Second frame without the southern eddy: its track must close.
	if err := tr.Advance(7200, mkFrame(0.7)); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.ActiveTracks()); got != 1 {
		t.Fatalf("active tracks after disappearance = %d, want 1", got)
	}
	tracks := tr.Finish()
	if len(tracks) != 2 {
		t.Fatalf("total tracks = %d, want 2", len(tracks))
	}
}

func TestTrackerNewEddyGetsNewID(t *testing.T) {
	m := testMesh(t)
	tr, _ := NewTracker(m.Radius, 5e5)
	frameAt := func(lat, lon float64) []Eddy {
		w := make([]float64, m.NCells())
		paintDisk(m, w, mesh.FromLatLon(lat, lon), 0.12, -4)
		eddies, _ := Detect(m, w, -1, 1)
		return eddies
	}
	tr.Advance(0, frameAt(0.5, 0))
	tr.Advance(3600, frameAt(-0.9, 2.5)) // far away: old closes, new opens
	tracks := tr.Finish()
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d, want 2", len(tracks))
	}
	if tracks[0].ID == tracks[1].ID {
		t.Error("distinct eddies share an ID")
	}
}

func TestTrackerTimeMonotonic(t *testing.T) {
	m := testMesh(t)
	tr, _ := NewTracker(m.Radius, 5e5)
	w := make([]float64, m.NCells())
	paintDisk(m, w, mesh.FromLatLon(0.5, 0), 0.12, -4)
	eddies, _ := Detect(m, w, -1, 1)
	if err := tr.Advance(3600, eddies); err != nil {
		t.Fatal(err)
	}
	if err := tr.Advance(1800, eddies); err == nil {
		t.Error("time regression accepted")
	}
}

func TestTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0, 1); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := NewTracker(1, 0); err == nil {
		t.Error("zero separation accepted")
	}
}

func TestLifetimeStats(t *testing.T) {
	tracks := []*Track{
		{ID: 1, Points: []TrackPoint{{Time: 0}, {Time: 100}}},
		{ID: 2, Points: []TrackPoint{{Time: 50}, {Time: 350}}},
		{ID: 3, Points: []TrackPoint{{Time: 10}}},
	}
	if got := LongestLifetime(tracks); got != 300 {
		t.Errorf("LongestLifetime = %v, want 300", got)
	}
	if LongestLifetime(nil) != 0 {
		t.Error("empty track stats should be 0")
	}
}

func TestClassifySpin(t *testing.T) {
	m := testMesh(t)
	w := make([]float64, m.NCells())
	paintDisk(m, w, mesh.FromLatLon(0.6, 1.0), 0.15, -4)  // northern eddy
	paintDisk(m, w, mesh.FromLatLon(-0.6, 1.0), 0.15, -4) // southern eddy
	eddies, err := Detect(m, w, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eddies) != 2 {
		t.Fatalf("detected %d eddies", len(eddies))
	}
	// Positive vorticity everywhere: cyclonic in the north, anticyclonic
	// in the south.
	vort := make([]float64, m.NCells())
	for i := range vort {
		vort[i] = 1e-5
	}
	for _, e := range eddies {
		spin, err := ClassifySpin(m, e, vort)
		if err != nil {
			t.Fatal(err)
		}
		if e.Lat > 0 && spin != SpinCyclonic {
			t.Errorf("northern eddy classified %v", spin)
		}
		if e.Lat < 0 && spin != SpinAnticyclonic {
			t.Errorf("southern eddy classified %v", spin)
		}
	}
	// Negative vorticity flips both.
	for i := range vort {
		vort[i] = -1e-5
	}
	for _, e := range eddies {
		spin, _ := ClassifySpin(m, e, vort)
		if e.Lat > 0 && spin != SpinAnticyclonic {
			t.Errorf("northern eddy with negative vorticity classified %v", spin)
		}
	}
	// Errors and degenerate cases.
	if _, err := ClassifySpin(m, eddies[0], make([]float64, 2)); err == nil {
		t.Error("mis-sized vorticity accepted")
	}
	if _, err := ClassifySpin(m, Eddy{}, make([]float64, m.NCells())); err == nil {
		t.Error("empty eddy accepted")
	}
	if _, err := ClassifySpin(m, Eddy{Cells: []int{-1}}, make([]float64, m.NCells())); err == nil {
		t.Error("out-of-range cell accepted")
	}
	spin, err := ClassifySpin(m, eddies[0], make([]float64, m.NCells()))
	if err != nil || spin != SpinUnknown {
		t.Errorf("zero vorticity spin = %v (%v), want unknown", spin, err)
	}
	if SpinCyclonic.String() != "cyclonic" || SpinAnticyclonic.String() != "anticyclonic" || SpinUnknown.String() != "unknown" {
		t.Error("spin names wrong")
	}
}

func TestSummarizeTracks(t *testing.T) {
	if st := SummarizeTracks(nil, 1); st.Count != 0 {
		t.Errorf("empty stats = %+v", st)
	}
	day := 86400.0
	a := &Track{ID: 1, Points: []TrackPoint{
		{Time: 0, Centroid: mesh.FromLatLon(0, 0)},
		{Time: 10 * day, Centroid: mesh.FromLatLon(0, 0.1)},
	}}
	b := &Track{ID: 2, Points: []TrackPoint{{Time: 0, Centroid: mesh.FromLatLon(1, 1)}}}
	st := SummarizeTracks([]*Track{a, b}, mesh.EarthRadius)
	if st.Count != 2 || st.MultiPointTracks != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.LongestLifetime != 10*day || st.MeanLifetime != 5*day {
		t.Errorf("lifetimes = %+v", st)
	}
	wantDist := 0.1 * mesh.EarthRadius
	if math.Abs(st.LongestDistance-wantDist) > 1 {
		t.Errorf("longest distance = %v, want %v", st.LongestDistance, wantDist)
	}
	wantSpeed := wantDist / (10 * day)
	if math.Abs(st.MeanDriftSpeed-wantSpeed) > 1e-9 {
		t.Errorf("drift speed = %v, want %v", st.MeanDriftSpeed, wantSpeed)
	}
}
