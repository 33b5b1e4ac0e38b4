package intransit

import (
	"bytes"
	"errors"
	"image/color"
	"math"
	"math/rand"
	"testing"
)

func TestNewCodec(t *testing.T) {
	for _, name := range append(CodecNames(), "") {
		c, err := NewCodec(name)
		if err != nil {
			t.Fatalf("NewCodec(%q): %v", name, err)
		}
		if name != "" && c.Name() != name {
			t.Errorf("NewCodec(%q).Name() = %q", name, c.Name())
		}
	}
	if _, err := NewCodec("zstd9000"); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range CodecNames() {
		c, err := NewCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		var enc, dec []byte
		for i := 0; i < 20; i++ {
			src := make([]byte, rng.Intn(8192))
			rng.Read(src)
			enc = c.Encode(enc, src)
			dec, err = c.Decode(dec, enc, len(src))
			if err != nil {
				t.Fatalf("%s: Decode: %v", name, err)
			}
			if !bytes.Equal(dec, src) {
				t.Fatalf("%s: round trip mangled %d bytes", name, len(src))
			}
			// One byte short of the decoded length is over the limit.
			if _, err := c.Decode(nil, enc, len(src)-1); len(src) > 0 && err == nil {
				t.Fatalf("%s: %d decoded bytes accepted under a limit of %d", name, len(src), len(src)-1)
			}
		}
		// Empty input round-trips too.
		enc = c.Encode(enc, nil)
		dec, err = c.Decode(dec, enc, 0)
		if err != nil || len(dec) != 0 {
			t.Fatalf("%s: empty round trip: %d bytes, %v", name, len(dec), err)
		}
	}
}

// sampleTables synthesizes a sample's render tables the way the ocean
// run produces them: a smooth field, symmetric normalization, the real
// colormap, and a threshold selection over the rotation-dominated tail.
func sampleTables(n int, phase float64) ([]color.RGBA, []bool) {
	field := make([]float64, n)
	for i := range field {
		field[i] = 1e-9 * math.Sin(float64(i)/40+phase) * (1 + 0.01*math.Cos(float64(i)/7))
	}
	colors := make([]color.RGBA, n)
	core := make([]bool, n)
	var mx float64
	for _, v := range field {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	for i, v := range field {
		t := (v + mx) / (2 * mx)
		colors[i] = color.RGBA{R: uint8(255 * t), G: uint8(255 * (1 - t)), B: uint8(127 * t), A: 255}
		core[i] = v < -mx/2
	}
	return colors, core
}

// gatherIdentity is the trivial sharding map: one rank owning every cell
// in order.
func gatherIdentity(n int) []int {
	cells := make([]int, n)
	for i := range cells {
		cells[i] = i
	}
	return cells
}

func TestShardRoundTrip(t *testing.T) {
	for _, withCore := range []bool{false, true} {
		codecE, _ := NewCodec(DefaultCodec)
		codecD, _ := NewCodec(DefaultCodec)
		se := newShardEncoder(codecE)
		sd := newShardDecoder(codecD)
		cells := gatherIdentity(500)
		for sample := 0; sample < 5; sample++ {
			colors, core := sampleTables(len(cells), float64(sample)/3)
			if !withCore {
				core = nil
			}
			payload, flags, rawLen := se.encode(0, 0, cells, colors, core)
			if rawLen != 8*len(cells) {
				t.Fatalf("rawLen = %d, want %d", rawLen, 8*len(cells))
			}
			if sample == 0 && flags&FlagDelta != 0 {
				t.Fatal("first sample claims delta")
			}
			if sample > 0 && flags&FlagDelta == 0 {
				t.Fatal("later sample not delta-encoded")
			}
			if got := flags&FlagCore != 0; got != withCore {
				t.Fatalf("FlagCore = %v, want %v", got, withCore)
			}
			v, err := sd.decode(0, 0, flags, payload, len(cells))
			if err != nil {
				t.Fatalf("decode sample %d: %v", sample, err)
			}
			for i, ci := range cells {
				want := colors[ci]
				if v.r[i] != want.R || v.g[i] != want.G || v.b[i] != want.B {
					t.Fatalf("sample %d cell %d: color (%d,%d,%d), want (%d,%d,%d)",
						sample, i, v.r[i], v.g[i], v.b[i], want.R, want.G, want.B)
				}
				if withCore && v.coreBit(i) != core[ci] {
					t.Fatalf("sample %d cell %d: core bit %v, want %v", sample, i, v.coreBit(i), core[ci])
				}
			}
			if !withCore && v.core != nil {
				t.Fatal("decoded view has a core plane for a core-less shard")
			}
		}
	}
}

// TestShardCoreToggleSkipsDelta pins that a sample whose record length
// changes (core frame appears or disappears) is sent absolute, since the
// previous record cannot line up byte for byte.
func TestShardCoreToggleSkipsDelta(t *testing.T) {
	codec, _ := NewCodec("raw")
	se := newShardEncoder(codec)
	cells := gatherIdentity(100)
	colors, core := sampleTables(len(cells), 0)
	se.encode(0, 0, cells, colors, nil)
	_, flags, _ := se.encode(0, 0, cells, colors, core)
	if flags&FlagDelta != 0 {
		t.Fatal("record-length change still delta-encoded")
	}
	_, flags, _ = se.encode(0, 0, cells, colors, core)
	if flags&FlagDelta == 0 {
		t.Fatal("matching record lengths not delta-encoded")
	}
}

// TestShardEncoderResetGoesAbsolute pins the reconnect contract: after
// reset, the next shard must not be a delta, so a decoder with no history
// can decode it.
func TestShardEncoderResetGoesAbsolute(t *testing.T) {
	codec, _ := NewCodec("raw")
	se := newShardEncoder(codec)
	cells := gatherIdentity(100)
	colors, _ := sampleTables(len(cells), 0)
	se.encode(0, 0, cells, colors, nil)
	_, flags, _ := se.encode(0, 0, cells, colors, nil)
	if flags&FlagDelta == 0 {
		t.Fatal("second encode not delta")
	}
	se.reset()
	payload, flags, _ := se.encode(0, 0, cells, colors, nil)
	if flags&FlagDelta != 0 {
		t.Fatal("post-reset encode still delta")
	}
	// A fresh decoder (new connection) decodes it.
	codecD, _ := NewCodec("raw")
	sd := newShardDecoder(codecD)
	v, err := sd.decode(0, 0, flags, payload, len(cells))
	if err != nil {
		t.Fatalf("fresh decoder: %v", err)
	}
	for i := range cells {
		if v.r[i] != colors[i].R {
			t.Fatal("post-reset round trip mangled colors")
		}
	}
}

func TestShardDecoderRejections(t *testing.T) {
	codec, _ := NewCodec("raw")
	se := newShardEncoder(codec)
	cells := gatherIdentity(100)
	colors, core := sampleTables(len(cells), 0)

	// A delta shard without history must be rejected.
	se.encode(0, 0, cells, colors, nil)
	payload, flags, _ := se.encode(0, 0, cells, colors, nil)
	codecD, _ := NewCodec("raw")
	sd := newShardDecoder(codecD)
	if _, err := sd.decode(0, 0, flags, payload, len(cells)); !errors.Is(err, ErrBadShard) {
		t.Errorf("delta shard without history: err = %v, want ErrBadShard", err)
	}

	// A record whose length disagrees with the rank's cell count must be
	// rejected — with and without the core plane.
	se.reset()
	payload, flags, _ = se.encode(0, 0, cells, colors, nil)
	if _, err := sd.decode(0, 0, flags, payload, len(cells)+1); !errors.Is(err, ErrBadShard) {
		t.Errorf("short record: err = %v, want ErrBadShard", err)
	}
	// So must a flag the encoder never sets.
	if _, err := sd.decode(0, 0, flags|0x80, payload, len(cells)); !errors.Is(err, ErrBadShard) {
		t.Errorf("unknown flag: err = %v, want ErrBadShard", err)
	}
	payload, flags, _ = se.encode(1, 0, cells, colors, core)
	if _, err := sd.decode(1, 0, flags, payload, len(cells)-1); !errors.Is(err, ErrBadShard) {
		t.Errorf("long record: err = %v, want ErrBadShard", err)
	}
	// And a core mask with bits set past the rank's last cell (100 cells
	// use 4 bits of the mask's last byte).
	padded := append([]byte(nil), payload...)
	padded[len(padded)-1] |= 0x80
	if _, err := newShardDecoder(codecD).decode(1, 0, flags, padded, len(cells)); !errors.Is(err, ErrBadShard) {
		t.Errorf("mask padding bit set: err = %v, want ErrBadShard", err)
	}
}

// TestCompressionSavings pins the acceptance criterion's bound: on a
// run's worth of realistic render tables, the render-exact encoding plus
// delta+flate must save at least 30% against the float64 field volume
// the shards stand in for.
func TestCompressionSavings(t *testing.T) {
	codec, _ := NewCodec(DefaultCodec)
	se := newShardEncoder(codec)
	cells := gatherIdentity(2562)
	var raw, wire int
	for sample := 0; sample < 6; sample++ {
		colors, core := sampleTables(len(cells), float64(sample)/5)
		payload, _, rawLen := se.encode(0, 0, cells, colors, core)
		raw += rawLen
		wire += len(payload) + HeaderSize
	}
	ratio := float64(wire) / float64(raw)
	if ratio > 0.7 {
		t.Errorf("compression ratio %.3f, want <= 0.7 (30%% savings)", ratio)
	}
	t.Logf("compression ratio %.3f (%d raw -> %d wire)", ratio, raw, wire)
}
