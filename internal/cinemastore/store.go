package cinemastore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"insituviz/internal/faults"
)

// Store is an opened Cinema database: the parsed index plus the lookup
// structures of the query engine. A Store is immutable after Open
// (SetFaults aside, which is called before serving starts) and safe for
// concurrent use; frames are read from disk on demand.
type Store struct {
	dir     string
	entries []Entry // canonical order
	total   int64

	byKey  map[Key]int
	byFile map[string]int
	vars   []*variableAxis
	varIdx map[string]*variableAxis

	// Fault injection on the read path (nil without SetFaults; nil sites
	// never fire).
	inj        *faults.Injector
	bitrotSite *faults.Site
	truncSite  *faults.Site
}

// variableAxis is the per-variable slice of the axis space: the cameras
// the variable was rendered from, each with its sorted time series.
type variableAxis struct {
	name string
	cams []*cameraAxis
}

// cameraAxis is one (phi, theta) viewpoint's time series for a variable.
type cameraAxis struct {
	phi, theta float64
	times      []float64 // ascending
	idx        []int     // entry index per time
}

// Open loads and validates the database index in dir.
func Open(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		return nil, fmt.Errorf("cinemastore: read index: %w", err)
	}
	entries, err := DecodeIndex(data)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir: dir, entries: entries,
		byKey:  make(map[Key]int, len(entries)),
		byFile: make(map[string]int, len(entries)),
		varIdx: map[string]*variableAxis{},
	}
	for i, e := range entries {
		s.byKey[e.Key] = i // DecodeIndex refused duplicate keys
		if _, ok := s.byFile[e.File]; ok {
			return nil, fmt.Errorf("cinemastore: file %q indexed twice", e.File)
		}
		s.byFile[e.File] = i
		s.total += e.Bytes

		va := s.varIdx[e.Variable]
		if va == nil {
			va = &variableAxis{name: e.Variable}
			s.varIdx[e.Variable] = va
			s.vars = append(s.vars, va)
		}
		var cam *cameraAxis
		for _, c := range va.cams {
			if c.phi == e.Phi && c.theta == e.Theta {
				cam = c
				break
			}
		}
		if cam == nil {
			cam = &cameraAxis{phi: e.Phi, theta: e.Theta}
			va.cams = append(va.cams, cam)
		}
		// Entries arrive in canonical order, so each camera's time series
		// is already ascending.
		cam.times = append(cam.times, e.Time)
		cam.idx = append(cam.idx, i)
	}
	return s, nil
}

// Len returns the number of indexed frames.
func (s *Store) Len() int { return len(s.entries) }

// TotalBytes returns the cumulative indexed frame size.
func (s *Store) TotalBytes() int64 { return s.total }

// Entries returns a copy of the index in canonical order.
func (s *Store) Entries() []Entry { return append([]Entry(nil), s.entries...) }

// EntryAt returns the i'th entry in canonical order. It panics on an
// out-of-range index, like a slice.
func (s *Store) EntryAt(i int) Entry { return s.entries[i] }

// Variables returns the distinct variable names, sorted.
func (s *Store) Variables() []string {
	out := make([]string, len(s.vars))
	for i, va := range s.vars {
		out[i] = va.name
	}
	sort.Strings(out)
	return out
}

// LookupIndex resolves a key exactly, returning the entry's canonical
// index. It allocates nothing, so it can sit on the serving hot path.
func (s *Store) LookupIndex(key Key) (int, bool) {
	i, ok := s.byKey[key]
	return i, ok
}

// LookupFileIndex resolves a stored file name to its canonical entry
// index. Allocation-free.
func (s *Store) LookupFileIndex(name string) (int, bool) {
	i, ok := s.byFile[name]
	return i, ok
}

// NearestIndex resolves a key to the closest stored frame: the variable
// must match exactly, then the nearest camera by squared angular offset
// (phi wrapped onto (-pi, pi]), then the nearest time on that camera's
// track. Ties break toward the lower camera index and the earlier time,
// so resolution is deterministic. Allocation-free. Returns false only for
// an unknown variable.
func (s *Store) NearestIndex(key Key) (int, bool) {
	va := s.varIdx[key.Variable]
	if va == nil || len(va.cams) == 0 {
		return 0, false
	}
	best := va.cams[0]
	bestD := angularDist2(best.phi, best.theta, key.Phi, key.Theta)
	for _, c := range va.cams[1:] {
		if d := angularDist2(c.phi, c.theta, key.Phi, key.Theta); d < bestD {
			best, bestD = c, d
		}
	}
	// Nearest time by binary search; tie toward the earlier sample.
	times := best.times
	j := sort.SearchFloat64s(times, key.Time)
	switch {
	case j == 0:
	case j == len(times):
		j = len(times) - 1
	case key.Time-times[j-1] <= times[j]-key.Time:
		j--
	}
	return best.idx[j], true
}

// angularDist2 is the squared camera offset with the azimuth wrapped, so
// a view at phi=-pi/2 is near one at phi=3pi/2.
func angularDist2(phi1, theta1, phi2, theta2 float64) float64 {
	dphi := math.Mod(phi1-phi2, 2*math.Pi)
	if dphi > math.Pi {
		dphi -= 2 * math.Pi
	} else if dphi < -math.Pi {
		dphi += 2 * math.Pi
	}
	dtheta := theta1 - theta2
	return dphi*dphi + dtheta*dtheta
}

// SetFaults arms the read path's silent-corruption sites: "store.bitrot"
// flips one bit of the returned frame bytes, "store.truncate" cuts the
// tail — both at deterministic, seed-derived offsets, both invisible to
// the read itself. Only digest/length verification downstream notices,
// which is the point. Call before the store starts serving reads.
func (s *Store) SetFaults(in *faults.Injector) {
	s.inj = in
	s.bitrotSite = in.Site("store.bitrot")
	s.truncSite = in.Site("store.truncate")
}

// ReadFrame loads one frame's bytes. Entry file names were validated at
// Open to be bare names inside the database directory.
func (s *Store) ReadFrame(e Entry) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("cinemastore: read frame: %w", err)
	}
	// Injected silent corruption: the read "succeeds" with wrong bytes.
	// Truncation is consulted first so a frame can suffer both.
	if f, ok := s.truncSite.Next(); ok && f.Kind == faults.KindCorrupt && len(data) > 1 {
		cut := 1 + int(s.inj.Uniform("store.truncate.cut", f.Seq)*float64(len(data)-1))
		data = data[:cut]
	}
	if f, ok := s.bitrotSite.Next(); ok && f.Kind == faults.KindCorrupt && len(data) > 0 {
		pos := int(s.inj.Uniform("store.bitrot.pos", f.Seq) * float64(len(data)))
		if pos >= len(data) {
			pos = len(data) - 1
		}
		data[pos] ^= 0x80
	}
	return data, nil
}

// ReadFrameAt loads the frame at canonical index i.
func (s *Store) ReadFrameAt(i int) ([]byte, error) {
	return s.ReadFrame(s.entries[i])
}
