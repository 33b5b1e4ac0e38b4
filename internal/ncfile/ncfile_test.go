package ncfile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// buildSample constructs a dataset resembling an MPAS-O Okubo-Weiss dump:
// a fixed coordinate variable plus a record variable over time.
func buildSample(t testing.TB, nCells, nRecs int) *File {
	t.Helper()
	f := New()
	timeDim, err := f.AddDimension("Time", 0)
	if err != nil {
		t.Fatal(err)
	}
	cellDim, err := f.AddDimension("nCells", nCells)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddGlobalAttribute(TextAttribute("title", "MPAS-O Okubo-Weiss dump")); err != nil {
		t.Fatal(err)
	}
	if err := f.AddGlobalAttribute(NumericAttribute("grid_km", Int, 60)); err != nil {
		t.Fatal(err)
	}
	latID, err := f.AddVariable("latCell", Double, []int{cellDim})
	if err != nil {
		t.Fatal(err)
	}
	owID, err := f.AddVariable("okuboWeiss", Double, []int{timeDim, cellDim})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddVariableAttribute(owID, TextAttribute("units", "s-2")); err != nil {
		t.Fatal(err)
	}
	if err := f.AddVariableAttribute(owID, NumericAttribute("threshold", Double, -0.2)); err != nil {
		t.Fatal(err)
	}
	lat := make([]float64, nCells)
	for i := range lat {
		lat[i] = -1.5 + 3*float64(i)/float64(nCells)
	}
	if err := f.SetData(latID, lat); err != nil {
		t.Fatal(err)
	}
	ow := make([]float64, nCells*nRecs)
	rng := rand.New(rand.NewSource(5))
	for i := range ow {
		ow[i] = rng.NormFloat64() * 1e-10
	}
	if err := f.SetData(owID, ow); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTypeSizes(t *testing.T) {
	cases := map[Type]int{Byte: 1, Char: 1, Short: 2, Int: 4, Float: 4, Double: 8, Type(99): 0}
	for ty, want := range cases {
		if got := ty.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", ty, got, want)
		}
	}
	if Double.String() != "NC_DOUBLE" || Type(99).String() == "" {
		t.Error("type names wrong")
	}
}

func TestDefinitionValidation(t *testing.T) {
	f := New()
	if _, err := f.AddDimension("", 3); err == nil {
		t.Error("empty dim name accepted")
	}
	if _, err := f.AddDimension("x", -1); err == nil {
		t.Error("negative dim accepted")
	}
	xID, err := f.AddDimension("x", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddDimension("x", 4); err == nil {
		t.Error("duplicate dim accepted")
	}
	tID, err := f.AddDimension("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddDimension("t2", 0); err == nil {
		t.Error("second unlimited dim accepted")
	}

	if _, err := f.AddVariable("", Double, nil); err == nil {
		t.Error("empty var name accepted")
	}
	if _, err := f.AddVariable("v", Char, nil); err == nil {
		t.Error("char variable accepted")
	}
	if _, err := f.AddVariable("v", Double, []int{9}); err == nil {
		t.Error("unknown dim accepted")
	}
	if _, err := f.AddVariable("v", Double, []int{xID, tID}); err == nil {
		t.Error("record dim in non-leading position accepted")
	}
	if _, err := f.AddVariable("v", Double, []int{tID, xID}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddVariable("v", Double, nil); err == nil {
		t.Error("duplicate var accepted")
	}

	if err := f.AddGlobalAttribute(Attribute{Name: "", Type: Char}); err == nil {
		t.Error("empty attr name accepted")
	}
	if err := f.AddGlobalAttribute(Attribute{Name: "a", Type: Int}); err == nil {
		t.Error("numeric attr without values accepted")
	}
	if err := f.AddGlobalAttribute(Attribute{Name: "a", Type: Char, Values: []float64{1}}); err == nil {
		t.Error("char attr with numeric values accepted")
	}
	if err := f.AddGlobalAttribute(Attribute{Name: "a", Type: Type(42), Values: []float64{1}}); err == nil {
		t.Error("bad attr type accepted")
	}
	if err := f.AddVariableAttribute(99, TextAttribute("a", "b")); err == nil {
		t.Error("attr on unknown var accepted")
	}
}

func TestSetDataValidation(t *testing.T) {
	f := New()
	tDim, _ := f.AddDimension("t", 0)
	xDim, _ := f.AddDimension("x", 4)
	fixed, _ := f.AddVariable("fixed", Double, []int{xDim})
	rec, _ := f.AddVariable("rec", Double, []int{tDim, xDim})
	rec2, _ := f.AddVariable("rec2", Float, []int{tDim, xDim})

	if err := f.SetData(99, nil); err == nil {
		t.Error("unknown var accepted")
	}
	if err := f.SetData(fixed, make([]float64, 3)); err == nil {
		t.Error("wrong fixed length accepted")
	}
	if err := f.SetData(rec, make([]float64, 7)); err == nil {
		t.Error("non-multiple record length accepted")
	}
	if err := f.SetData(rec, make([]float64, 12)); err != nil { // 3 records
		t.Fatal(err)
	}
	if f.NumRecords() != 3 {
		t.Errorf("NumRecords = %d, want 3", f.NumRecords())
	}
	if err := f.SetData(rec2, make([]float64, 8)); err == nil {
		t.Error("inconsistent record count accepted")
	}
	if err := f.SetData(rec2, make([]float64, 12)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Data(99); err == nil {
		t.Error("Data on unknown var accepted")
	}
}

func TestEncodeRequiresData(t *testing.T) {
	f := New()
	xDim, _ := f.AddDimension("x", 4)
	f.AddVariable("v", Double, []int{xDim})
	var buf bytes.Buffer
	if _, err := f.Encode(&buf); err == nil {
		t.Error("encode without data accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	f := buildSample(t, 17, 3)
	var buf bytes.Buffer
	n, err := f.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Fatalf("Encode returned %d, wrote %d", n, buf.Len())
	}
	// The file must carry the classic magic.
	if string(buf.Bytes()[0:3]) != "CDF" || buf.Bytes()[3] != 1 {
		t.Fatalf("magic = % x", buf.Bytes()[:4])
	}

	g, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Dims) != 2 || g.Dims[0].Name != "Time" || !g.Dims[0].Unlimited() || g.Dims[1].Length != 17 {
		t.Fatalf("dims = %+v", g.Dims)
	}
	if g.NumRecords() != 3 {
		t.Fatalf("records = %d", g.NumRecords())
	}
	if len(g.GlobalAttrs) != 2 || g.GlobalAttrs[0].Text != "MPAS-O Okubo-Weiss dump" {
		t.Fatalf("gatts = %+v", g.GlobalAttrs)
	}
	if g.GlobalAttrs[1].Values[0] != 60 {
		t.Fatalf("grid_km = %v", g.GlobalAttrs[1].Values)
	}
	owIn, _ := f.VarID("okuboWeiss")
	owOut, err := g.VarID("okuboWeiss")
	if err != nil {
		t.Fatal(err)
	}
	wantData, _ := f.Data(owIn)
	gotData, _ := g.Data(owOut)
	if len(gotData) != len(wantData) {
		t.Fatalf("data length %d, want %d", len(gotData), len(wantData))
	}
	for i := range wantData {
		if gotData[i] != wantData[i] {
			t.Fatalf("double data differs at %d: %g vs %g", i, gotData[i], wantData[i])
		}
	}
	if len(g.Vars[owOut].Attrs) != 2 || g.Vars[owOut].Attrs[0].Text != "s-2" {
		t.Fatalf("var attrs = %+v", g.Vars[owOut].Attrs)
	}
	if g.Vars[owOut].Attrs[1].Values[0] != -0.2 {
		t.Fatalf("threshold attr = %v", g.Vars[owOut].Attrs[1].Values)
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	f := New()
	xDim, _ := f.AddDimension("x", 5)
	vals := []float64{-3, 0, 1, 2, 7}
	ids := map[Type]int{}
	for _, ty := range []Type{Short, Int, Float, Double} {
		id, err := f.AddVariable("v_"+ty.String(), ty, []int{xDim})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SetData(id, vals); err != nil {
			t.Fatal(err)
		}
		ids[ty] = id
	}
	var buf bytes.Buffer
	if _, err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for ty, id := range ids {
		got, err := g.Data(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Errorf("%v: data[%d] = %g, want %g", ty, i, got[i], vals[i])
			}
		}
	}
	// Short data (2 bytes x 5 = 10) must be padded to 12 inside the file;
	// the next variable must still decode correctly — covered above.
}

func TestFloatPrecisionLoss(t *testing.T) {
	f := New()
	xDim, _ := f.AddDimension("x", 1)
	id, _ := f.AddVariable("v", Float, []int{xDim})
	pi := math.Pi
	f.SetData(id, []float64{pi})
	var buf bytes.Buffer
	if _, err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := g.Data(0)
	if got[0] == pi {
		t.Error("float32 round trip preserved full float64 precision, suspicious")
	}
	if math.Abs(got[0]-pi) > 1e-6 {
		t.Errorf("float32 round trip error too large: %g", got[0]-pi)
	}
}

func TestRangeErrors(t *testing.T) {
	f := New()
	xDim, _ := f.AddDimension("x", 1)
	id, _ := f.AddVariable("v", Short, []int{xDim})
	f.SetData(id, []float64{1e9})
	var buf bytes.Buffer
	if _, err := f.Encode(&buf); err == nil {
		t.Error("out-of-range short accepted")
	}
	g := New()
	yDim, _ := g.AddDimension("y", 1)
	gid, _ := g.AddVariable("v", Int, []int{yDim})
	g.SetData(gid, []float64{1e18})
	buf.Reset()
	if _, err := g.Encode(&buf); err == nil {
		t.Error("out-of-range int accepted")
	}
}

func TestWriteReadFile(t *testing.T) {
	f := buildSample(t, 9, 2)
	path := filepath.Join(t.TempDir(), "sample.nc")
	n, err := f.WriteFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("wrote %d bytes", n)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRecords() != 2 {
		t.Errorf("records = %d", g.NumRecords())
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.nc")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("CD"),
		[]byte("XDF\x01\x00\x00\x00\x00"),
		[]byte("CDF\x03\x00\x00\x00\x00"),
		[]byte("CDF\x01\x00\x00\x00"), // truncated numrecs
		[]byte("CDF\x01\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00"), // streaming numrecs
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		} else if len(c) >= 4 && !errors.Is(err, ErrFormat) {
			t.Errorf("case %d: err = %v, want ErrFormat", i, err)
		}
	}
}

func TestDecodeTruncatedFile(t *testing.T) {
	f := buildSample(t, 8, 2)
	var buf bytes.Buffer
	if _, err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chopping anywhere must produce an error, never a panic.
	for cut := 4; cut < len(full); cut += 13 {
		if _, err := Decode(full[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestEncodedSizeFormula(t *testing.T) {
	// The encoded size must scale linearly with records at the record
	// slab stride.
	small := buildSample(t, 100, 1)
	big := buildSample(t, 100, 11)
	s1, err := small.Encode(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s11, err := big.Encode(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	perRecord := int64(100 * 8) // one double per cell
	if s11-s1 != 10*perRecord {
		t.Errorf("size grew by %d over 10 records, want %d", s11-s1, 10*perRecord)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw []float64, nRecs uint8) bool {
		recs := int(nRecs%4) + 1
		width := len(raw)
		if width == 0 {
			width = 1
		}
		if width > 32 {
			width = 32
		}
		data := make([]float64, recs*width)
		for i := range data {
			v := 0.0
			if len(raw) > 0 {
				v = raw[i%len(raw)]
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			data[i] = v
		}
		nc := New()
		tDim, _ := nc.AddDimension("t", 0)
		xDim, _ := nc.AddDimension("x", width)
		id, _ := nc.AddVariable("v", Double, []int{tDim, xDim})
		if err := nc.SetData(id, data); err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := nc.Encode(&buf); err != nil {
			return false
		}
		g, err := Decode(buf.Bytes())
		if err != nil {
			return false
		}
		got, err := g.Data(0)
		if err != nil || len(got) != len(data) {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	f := buildSample(b, 2562, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := f.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	f := buildSample(b, 2562, 10)
	var buf bytes.Buffer
	if _, err := f.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// buildCDF2 hand-crafts a minimal CDF-2 (64-bit offset) file: one fixed
// dimension, one NC_INT variable with an 8-byte begin offset.
func buildCDF2(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	put32 := func(v uint32) {
		var b [4]byte
		b[0] = byte(v >> 24)
		b[1] = byte(v >> 16)
		b[2] = byte(v >> 8)
		b[3] = byte(v)
		buf.Write(b[:])
	}
	put64 := func(v uint64) {
		put32(uint32(v >> 32))
		put32(uint32(v))
	}
	buf.WriteString("CDF\x02")
	put32(0)    // numrecs
	put32(0x0A) // NC_DIMENSION
	put32(1)    // one dimension
	put32(1)    // name length "x"
	buf.WriteString("x\x00\x00\x00")
	put32(2) // dim length
	put32(0) // gatt ABSENT
	put32(0)
	put32(0x0B) // NC_VARIABLE
	put32(1)
	put32(1) // name length "v"
	buf.WriteString("v\x00\x00\x00")
	put32(1) // ndims
	put32(0) // dimid 0
	put32(0) // vatt ABSENT
	put32(0)
	put32(4) // nc_type NC_INT
	put32(8) // vsize
	begin := uint64(buf.Len()) + 8
	put64(begin)
	put32(0x00000007) // value 7
	put32(0xFFFFFFFE) // value -2
	return buf.Bytes()
}

func TestDecodeCDF2(t *testing.T) {
	data := buildCDF2(t)
	f, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Dims) != 1 || f.Dims[0].Name != "x" || f.Dims[0].Length != 2 {
		t.Fatalf("dims = %+v", f.Dims)
	}
	id, err := f.VarID("v")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := f.Data(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 7 || vals[1] != -2 {
		t.Fatalf("values = %v", vals)
	}
	// Truncating the 64-bit begin must error cleanly.
	if _, err := Decode(data[:len(data)-12]); err == nil {
		t.Error("truncated CDF-2 accepted")
	}
}

func TestDumpCDL(t *testing.T) {
	f := buildSample(t, 5, 2)
	out := DumpCDL(f, "sample")
	for _, want := range []string{
		"netcdf sample {",
		"Time = UNLIMITED ; // (2 currently)",
		"nCells = 5 ;",
		"double latCell(nCells) ;",
		"double okuboWeiss(Time, nCells) ;",
		`okuboWeiss:units = "s-2" ;`,
		"okuboWeiss:threshold = -0.2 ;",
		`:title = "MPAS-O Okubo-Weiss dump" ;`,
		":grid_km = 60 ;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CDL missing %q:\n%s", want, out)
		}
	}
	// Type names cover the variable types.
	g := New()
	xDim, _ := g.AddDimension("x", 1)
	for _, ty := range []Type{Short, Int, Float} {
		id, _ := g.AddVariable("v_"+ty.String(), ty, []int{xDim})
		g.SetData(id, []float64{1})
	}
	g.AddGlobalAttribute(NumericAttribute("fval", Float, 1.5))
	cdl := DumpCDL(g, "types")
	for _, want := range []string{"short v_NC_SHORT(x)", "int v_NC_INT(x)", "float v_NC_FLOAT(x)", ":fval = 1.5f ;"} {
		if !strings.Contains(cdl, want) {
			t.Errorf("CDL missing %q:\n%s", want, cdl)
		}
	}
	if cdlType(Type(99)) != "unknown" || cdlType(Byte) != "byte" || cdlType(Char) != "char" || cdlType(Double) != "double" {
		t.Error("cdlType names wrong")
	}
}

func TestDecodeNeverPanicsOnMutatedFiles(t *testing.T) {
	// Decode must reject — never panic on — arbitrary corruption of a
	// valid file.
	f := buildSample(t, 6, 2)
	var buf bytes.Buffer
	if _, err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), base...)
		// Flip 1-4 random bytes.
		for k := 0; k < 1+rng.Intn(4); k++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: Decode panicked: %v", trial, r)
				}
			}()
			// Either outcome (error or success) is fine; panics are not.
			_, _ = Decode(data)
		}()
	}
}

// FuzzDecode searches for a byte image that makes Decode panic, or that
// Decode accepts as a File which does not survive Encode and a second
// Decode unchanged. The corpus is seeded with encoded sample dumps, a
// CDF-2 file, and the truncations TestDecodeTruncatedFile checks.
func FuzzDecode(f *testing.F) {
	encode := func(g *File) []byte {
		var buf bytes.Buffer
		if _, err := g.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, shape := range [][2]int{{6, 2}, {3, 1}, {1, 0}} {
		f.Add(encode(buildSample(f, shape[0], shape[1])))
	}
	f.Add(buildCDF2(f))
	full := encode(buildSample(f, 8, 2))
	for cut := 4; cut < len(full); cut += 13 {
		f.Add(full[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := g.Encode(&buf); err != nil {
			t.Fatalf("decoded file does not re-encode: %v", err)
		}
		h, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded file does not decode: %v", err)
		}
		if err := sameFile(g, h); err != nil {
			t.Fatalf("round trip changed the file: %v", err)
		}
	})
}

// sameFile reports how a and b differ, comparing values bit for bit (so a
// NaN equals itself) and nil slices equal to empty ones.
func sameFile(a, b *File) error {
	if a.numRecs != b.numRecs {
		return fmt.Errorf("%d records vs %d", a.numRecs, b.numRecs)
	}
	if !slices.Equal(a.Dims, b.Dims) {
		return fmt.Errorf("dimensions %v vs %v", a.Dims, b.Dims)
	}
	if !sameAttrs(a.GlobalAttrs, b.GlobalAttrs) {
		return fmt.Errorf("global attributes %v vs %v", a.GlobalAttrs, b.GlobalAttrs)
	}
	if len(a.Vars) != len(b.Vars) {
		return fmt.Errorf("%d variables vs %d", len(a.Vars), len(b.Vars))
	}
	for i := range a.Vars {
		va, vb := &a.Vars[i], &b.Vars[i]
		if va.Name != vb.Name || va.Type != vb.Type || !slices.Equal(va.Dims, vb.Dims) ||
			!sameAttrs(va.Attrs, vb.Attrs) || !sameBits(va.data, vb.data) {
			return fmt.Errorf("variable %d: %+v vs %+v", i, *va, *vb)
		}
	}
	return nil
}

func sameAttrs(a, b []Attribute) bool {
	return slices.EqualFunc(a, b, func(x, y Attribute) bool {
		return x.Name == y.Name && x.Type == y.Type && x.Text == y.Text && sameBits(x.Values, y.Values)
	})
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
