package render

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"insituviz/internal/mesh"
)

// rasterMapGoldenHashes are the SHA-256 of the pixel → cell maps at each
// mesh subdivision level: the 384×192 equirectangular map, then the six
// 192×192 ortho maps of DefaultCameraSet, every entry a little-endian
// uint32.
var rasterMapGoldenHashes = map[int]string{
	3: "24d9628e43b931d9b8a3eda08a3201f0a3c95a039e7a3b5cbaa3592ada2225dc",
	5: "360ad5bd90b291a7750c690ef8d75b8c01c09e349344151d84f5f8c24e9d2e87",
}

// TestRasterMapGoldenHash pins which cell every pixel shows. The map is a
// nearest-cell argmax over dot products of projected pixel directions, so
// a reordered projection (or a fused multiply-add the compiler is free to
// form at another GOAMD64 level) could move a pixel on a cell boundary,
// and every stored frame with it. Pinned on amd64, like the mesh.
func TestRasterMapGoldenHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("raster maps are pinned on amd64 only (running on %s)", runtime.GOARCH)
	}
	for _, subdiv := range []int{3, 5} {
		m, err := mesh.NewIcosphere(subdiv, mesh.EarthRadius)
		if err != nil {
			t.Fatal(err)
		}
		rasters := make([]*Rasterizer, 0, 7)
		r, err := NewRasterizer(m, 384, 192)
		if err != nil {
			t.Fatal(err)
		}
		rasters = append(rasters, r)
		for _, cam := range DefaultCameraSet() {
			r, err := NewOrthoRasterizer(m, 192, 192, cam)
			if err != nil {
				t.Fatal(err)
			}
			rasters = append(rasters, r)
		}
		h := sha256.New()
		var buf []byte
		for _, r := range rasters {
			buf = buf[:0]
			for _, ci := range r.pixelCell {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(ci))
			}
			h.Write(buf)
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), rasterMapGoldenHashes[subdiv]; got != want {
			t.Errorf("subdivisions %d: raster map hash %s, want %s", subdiv, got, want)
		}
	}
}
