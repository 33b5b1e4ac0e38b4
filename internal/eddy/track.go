package eddy

import (
	"fmt"
	"sort"

	"insituviz/internal/mesh"
)

// TrackPoint is one observation of a tracked eddy.
type TrackPoint struct {
	Time     float64 // simulated time of the observation (s)
	Centroid mesh.Vec3
	Area     float64
	MinW     float64
}

// Track is the life of one eddy across timesteps.
type Track struct {
	ID     int
	Points []TrackPoint
	Closed bool // true once the eddy is no longer observed
}

// Birth returns the first observation time.
func (t *Track) Birth() float64 { return t.Points[0].Time }

// LastSeen returns the most recent observation time.
func (t *Track) LastSeen() float64 { return t.Points[len(t.Points)-1].Time }

// Lifetime returns the observed lifespan (s).
func (t *Track) Lifetime() float64 { return t.LastSeen() - t.Birth() }

// Distance returns the total great-circle distance traveled by the eddy
// centroid on a sphere of radius r (m).
func (t *Track) Distance(r float64) float64 {
	var d float64
	for i := 1; i < len(t.Points); i++ {
		d += mesh.ArcLength(t.Points[i-1].Centroid, t.Points[i].Centroid, r)
	}
	return d
}

// Tracker links per-timestep detections into persistent tracks by greedy
// nearest-centroid matching.
type Tracker struct {
	// MaxSeparation is the largest centroid displacement (m) permitted
	// between consecutive observations of the same eddy.
	MaxSeparation float64
	// Radius is the sphere radius (m) used to convert angular centroid
	// separations to distances.
	Radius float64

	nextID int
	open   []*Track
	closed []*Track
}

// NewTracker returns a tracker for a sphere of the given radius that
// associates detections whose centroids moved at most maxSeparation meters
// between frames.
func NewTracker(radius, maxSeparation float64) (*Tracker, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("eddy: non-positive radius %g", radius)
	}
	if maxSeparation <= 0 {
		return nil, fmt.Errorf("eddy: non-positive max separation %g", maxSeparation)
	}
	return &Tracker{MaxSeparation: maxSeparation, Radius: radius, nextID: 1}, nil
}

// Advance ingests the detections of the next timestep (at simulated time t
// seconds, which must be non-decreasing across calls) and updates the track
// set. Unmatched previous tracks are closed; unmatched detections start new
// tracks.
func (tr *Tracker) Advance(t float64, eddies []Eddy) error {
	if n := len(tr.open); n > 0 && t < tr.open[0].LastSeen() {
		return fmt.Errorf("eddy: time went backwards (%g after %g)", t, tr.open[0].LastSeen())
	}
	type pair struct {
		dist     float64
		track    int
		detected int
	}
	var pairs []pair
	for ti, track := range tr.open {
		last := track.Points[len(track.Points)-1].Centroid
		for di := range eddies {
			d := mesh.ArcLength(last, eddies[di].Centroid, tr.Radius)
			if d <= tr.MaxSeparation {
				pairs = append(pairs, pair{dist: d, track: ti, detected: di})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].dist < pairs[j].dist })

	usedTrack := make([]bool, len(tr.open))
	usedDet := make([]bool, len(eddies))
	for _, p := range pairs {
		if usedTrack[p.track] || usedDet[p.detected] {
			continue
		}
		usedTrack[p.track] = true
		usedDet[p.detected] = true
		e := &eddies[p.detected]
		tr.open[p.track].Points = append(tr.open[p.track].Points, TrackPoint{
			Time: t, Centroid: e.Centroid, Area: e.Area, MinW: e.MinW,
		})
	}

	var stillOpen []*Track
	for ti, track := range tr.open {
		if usedTrack[ti] {
			stillOpen = append(stillOpen, track)
		} else {
			track.Closed = true
			tr.closed = append(tr.closed, track)
		}
	}
	for di := range eddies {
		if usedDet[di] {
			continue
		}
		e := &eddies[di]
		stillOpen = append(stillOpen, &Track{
			ID: tr.nextID,
			Points: []TrackPoint{{
				Time: t, Centroid: e.Centroid, Area: e.Area, MinW: e.MinW,
			}},
		})
		tr.nextID++
	}
	tr.open = stillOpen
	return nil
}

// Finish closes all open tracks and returns every track ever observed,
// ordered by ID.
func (tr *Tracker) Finish() []*Track {
	for _, track := range tr.open {
		track.Closed = true
		tr.closed = append(tr.closed, track)
	}
	tr.open = nil
	out := append([]*Track(nil), tr.closed...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ActiveTracks returns the currently open tracks, ordered by ID.
func (tr *Tracker) ActiveTracks() []*Track {
	out := append([]*Track(nil), tr.open...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LongestLifetime returns the maximum lifetime (s) over the given tracks,
// or 0 when empty.
func LongestLifetime(tracks []*Track) float64 {
	var mx float64
	for _, t := range tracks {
		if lt := t.Lifetime(); lt > mx {
			mx = lt
		}
	}
	return mx
}

// TrackStats summarizes a track population — the numbers behind the
// paper's "eddies exist for hundreds of days while traveling hundreds of
// kilometers".
type TrackStats struct {
	Count            int
	MeanLifetime     float64 // s
	LongestLifetime  float64 // s
	MeanDistance     float64 // m
	LongestDistance  float64 // m
	MeanDriftSpeed   float64 // m/s over tracks with nonzero lifetime
	MultiPointTracks int     // tracks observed more than once
}

// Summarize computes TrackStats for tracks on a sphere of radius r.
func SummarizeTracks(tracks []*Track, r float64) TrackStats {
	st := TrackStats{Count: len(tracks)}
	if len(tracks) == 0 {
		return st
	}
	var speedSum float64
	speedCount := 0
	for _, t := range tracks {
		lt := t.Lifetime()
		d := t.Distance(r)
		st.MeanLifetime += lt
		st.MeanDistance += d
		if lt > st.LongestLifetime {
			st.LongestLifetime = lt
		}
		if d > st.LongestDistance {
			st.LongestDistance = d
		}
		if len(t.Points) > 1 {
			st.MultiPointTracks++
		}
		if lt > 0 {
			speedSum += d / lt
			speedCount++
		}
	}
	st.MeanLifetime /= float64(len(tracks))
	st.MeanDistance /= float64(len(tracks))
	if speedCount > 0 {
		st.MeanDriftSpeed = speedSum / float64(speedCount)
	}
	return st
}
