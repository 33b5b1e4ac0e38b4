package cinemaserve

import (
	"net/url"
	"strings"
	"testing"
)

// FuzzParseFrameQuery: the shared request parser never panics, and every
// request it accepts survives the trip a gateway makes it take — Route,
// then the node's URL split and parse — as the same query.
func FuzzParseFrameQuery(f *testing.F) {
	// The node-and-gateway rejection table, below the store name, plus the
	// two accepted shapes.
	for _, path := range []string{
		"frame",
		"frame?time=1",
		"frame?var=var0&time=soon",
		"frame?var=var0&phi=0x",
		"frame?var=var0&time=NaN",
		"frame?var=var0&theta=-Inf",
		"frame?var=var0&time=1&nearest=maybe",
		"frame?var=var0&time=1&nearest=maybe&cacheonly=1",
		"file/",
		"file/?cacheonly=1",
		"frame?var=var0&time=1&phi=0.5&theta=0.25&cacheonly=maybe",
		"frame?var=nope&time=1",
		"file/nope.png",
	} {
		route, rawQuery, _ := strings.Cut(path, "?")
		f.Add(route, rawQuery)
	}
	f.Fuzz(func(t *testing.T, route, rawQuery string) {
		q, ok, err := ParseFrameQuery(route, rawQuery)
		if !ok || err != nil {
			return
		}
		u, err := url.Parse("/" + q.Route())
		if err != nil {
			t.Fatalf("%+v: Route %q does not parse: %v", q, q.Route(), err)
		}
		got, ok, err := ParseFrameQuery(strings.TrimPrefix(u.Path, "/"), u.RawQuery)
		if !ok || err != nil || got != q {
			t.Fatalf("(%q, %q) -> %+v -> %q -> %+v (ok %v, err %v)", route, rawQuery, q, q.Route(), got, ok, err)
		}
	})
}
