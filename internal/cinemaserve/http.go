package cinemaserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"insituviz/internal/cinemastore"
	"insituviz/internal/trace"
)

// Handler returns the server's HTTP interface. It serves paths relative
// to its mount point, so callers mount it under a prefix:
//
//	mux.Handle("/cinema/", http.StripPrefix("/cinema", srv.Handler()))
//
// Routes (all GET):
//
//	/                      JSON listing of mounted stores
//	/<store>/              JSON store info (version, axes, totals)
//	/<store>/index.json    the store's index document
//	/<store>/frame?var=V[&time=T&phi=P&theta=H][&nearest=1]
//	                       one frame (image/png); nearest=1 snaps the
//	                       requested axis point to the closest stored one
//	/<store>/file/<name>   one frame addressed by stored file name
//
// Both frame routes accept &cacheonly=1: answer only from the in-memory
// cache (200), or 204 No Content when the frame is not resident — the
// probe a cluster gateway sends the owners for a client's own cacheonly
// request.
//
// Every request passes admission control: when MaxInflight requests are
// already in flight, the response is 503 with a Retry-After header — the
// server sheds rather than queueing unboundedly.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		slot, lane, ok := s.acquireSlot()
		if !ok {
			SetRetryAfter(w, s.cfg.RetryAfter)
			http.Error(w, ErrOverloaded.Error(), http.StatusServiceUnavailable)
			return
		}
		defer s.releaseSlot(slot)
		lane.Begin("serve.request")
		s.route(w, r, lane)
		lane.End()
	})
}

func (s *Server) route(w http.ResponseWriter, r *http.Request, lane *trace.Lane) {
	path := strings.TrimPrefix(r.URL.Path, "/")
	if path == "" {
		s.serveListing(w)
		return
	}
	store, rest, _ := strings.Cut(path, "/")
	q, isFrame, err := ParseFrameQuery(rest, r.URL.RawQuery)
	switch {
	case rest == "":
		s.serveStoreInfo(w, store)
	case rest == "index.json":
		s.serveIndex(w, store)
	case !isFrame:
		http.NotFound(w, r)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		data, entry, err := s.fetch(r.Context(), store, q, lane)
		s.writeFrame(w, data, entry, err)
	}
}

// storeInfo is the JSON shape of the listing and per-store endpoints.
type storeInfo struct {
	Name      string   `json:"name"`
	Version   string   `json:"version"`
	Frames    int      `json:"frames"`
	Bytes     int64    `json:"bytes"`
	Variables []string `json:"variables"`
}

func infoFor(name string, st *cinemastore.Store) storeInfo {
	return storeInfo{
		Name: name, Version: cinemastore.IndexVersion,
		Frames: st.Len(), Bytes: st.TotalBytes(),
		Variables: st.Variables(),
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) serveListing(w http.ResponseWriter) {
	names := s.Stores()
	out := make([]storeInfo, 0, len(names))
	for _, name := range names {
		if st, ok := s.Store(name); ok {
			out = append(out, infoFor(name, st))
		}
	}
	writeJSON(w, struct {
		Stores []storeInfo `json:"stores"`
	}{out})
}

func (s *Server) serveStoreInfo(w http.ResponseWriter, name string) {
	st, ok := s.Store(name)
	if !ok {
		http.Error(w, "unknown store", http.StatusNotFound)
		return
	}
	writeJSON(w, infoFor(name, st))
}

func (s *Server) serveIndex(w http.ResponseWriter, name string) {
	st, ok := s.Store(name)
	if !ok {
		http.Error(w, "unknown store", http.StatusNotFound)
		return
	}
	data, err := cinemastore.EncodeIndex(st.Entries())
	if err != nil {
		s.mErrors.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// ParseFrameQuery parses a frame request from the path below the store
// name and the raw query string. A node's handler and a cluster
// gateway's both call it, so the two accept and reject exactly the same
// requests. ok is false when route is neither "frame" nor "file/<name>";
// a non-nil error is the client's (400).
func ParseFrameQuery(route, rawQuery string) (q FrameQuery, ok bool, err error) {
	file, byFile := strings.CutPrefix(route, "file/")
	if !byFile && route != "frame" {
		return q, false, nil
	}
	// Like (*url.URL).Query: malformed pairs are dropped, not fatal.
	v, _ := url.ParseQuery(rawQuery)
	// cacheonly is a peer-protocol hint, not user input worth a 400:
	// unparsable values count as false.
	q.CacheOnly, _ = strconv.ParseBool(v.Get("cacheonly"))
	if byFile {
		if file == "" {
			return q, true, errors.New("missing file name")
		}
		q.File = file
		return q, true, nil
	}
	if q.Key.Variable = v.Get("var"); q.Key.Variable == "" {
		return q, true, errors.New("missing var parameter")
	}
	for _, p := range [...]struct {
		name string
		dst  *float64
	}{{"time", &q.Key.Time}, {"phi", &q.Key.Phi}, {"theta", &q.Key.Theta}} {
		if s := v.Get(p.name); s != "" {
			if *p.dst, err = strconv.ParseFloat(s, 64); err != nil {
				return q, true, fmt.Errorf("bad %s parameter: %v", p.name, err)
			}
		}
	}
	if err := q.Key.Validate(); err != nil {
		return q, true, err
	}
	if s := v.Get("nearest"); s != "" {
		if q.Nearest, err = strconv.ParseBool(s); err != nil {
			return q, true, errors.New("bad nearest parameter")
		}
	}
	return q, true, nil
}

// Route renders q as the path below the store name plus query string
// that ParseFrameQuery reads back to q — the canonical spelling a
// gateway forwards to its peers, whatever the client wrote.
func (q FrameQuery) Route() string {
	v := url.Values{}
	route := "frame"
	if q.File != "" {
		route = "file/" + url.PathEscape(q.File)
	} else {
		v.Set("var", q.Key.Variable)
		for name, val := range map[string]float64{"time": q.Key.Time, "phi": q.Key.Phi, "theta": q.Key.Theta} {
			v.Set(name, strconv.FormatFloat(val, 'g', -1, 64))
		}
		if q.Nearest {
			v.Set("nearest", "1")
		}
	}
	if q.CacheOnly {
		v.Set("cacheonly", "1")
	}
	if len(v) == 0 {
		return route
	}
	return route + "?" + v.Encode()
}

// WriteFrame writes one frame response: the PNG bytes under the file
// name they are stored as and, from a gateway, the node that served
// them. Empty names are omitted.
func WriteFrame(w http.ResponseWriter, data []byte, file, node string) {
	w.Header().Set("Content-Type", "image/png")
	if file != "" {
		w.Header().Set("X-Cinema-File", file)
	}
	if node != "" {
		w.Header().Set("X-Cinema-Node", node)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// SetRetryAfter advertises backoff d on a 503: Retry-After wants
// integral seconds, rounded up.
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(int((d+time.Second-1)/time.Second)))
}

func (s *Server) writeFrame(w http.ResponseWriter, data []byte, entry cinemastore.Entry, err error) {
	switch {
	case err == nil:
		WriteFrame(w, data, entry.File, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client went away; there is no one to write to.
	case err == errNotResident:
		// 204 — not 404 — because "not in memory" is a normal answer the
		// cluster gateway acts on, not an error about the request.
		w.WriteHeader(http.StatusNoContent)
	case err == ErrNotFound:
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrUnavailable):
		SetRetryAfter(w, s.cfg.RetryAfter)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		// A quarantined frame names itself in a header so a cluster
		// gateway can distinguish "this replica's copy is rotten" (fail
		// over and repair it) from an opaque server error (strike the
		// peer's breaker).
		var corrupt *CorruptFrameError
		if errors.As(err, &corrupt) {
			w.Header().Set("X-Cinema-Corrupt", corrupt.File)
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
