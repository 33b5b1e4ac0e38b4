// Package ncfile implements the netCDF "classic" binary file format
// (CDF-1, and CDF-2 with 64-bit offsets) — the output format the paper's
// post-processing pipeline writes through PIO/parallel-netCDF. Both the
// writer and the reader implement the actual on-disk layout (magic, dim /
// attribute / variable lists, 4-byte alignment, big-endian data, record
// variables over an unlimited dimension), so the raw output sizes the study
// depends on are byte-accurate rather than assumed.
//
// The supported subset covers what a field dump needs: SHORT/INT/FLOAT/
// DOUBLE variables over fixed and unlimited dimensions, plus CHAR/INT/
// FLOAT/DOUBLE attributes.
package ncfile

import (
	"errors"
	"fmt"
)

// Type is a netCDF external data type.
type Type int32

// The netCDF classic external types (file-format tag values).
const (
	Byte   Type = 1
	Char   Type = 2
	Short  Type = 3
	Int    Type = 4
	Float  Type = 5
	Double Type = 6
)

// Size returns the external size of one value of the type in bytes.
func (t Type) Size() int {
	switch t {
	case Byte, Char:
		return 1
	case Short:
		return 2
	case Int, Float:
		return 4
	case Double:
		return 8
	}
	return 0
}

// String names the type as in the netCDF documentation.
func (t Type) String() string {
	switch t {
	case Byte:
		return "NC_BYTE"
	case Char:
		return "NC_CHAR"
	case Short:
		return "NC_SHORT"
	case Int:
		return "NC_INT"
	case Float:
		return "NC_FLOAT"
	case Double:
		return "NC_DOUBLE"
	}
	return fmt.Sprintf("NC_UNKNOWN(%d)", int32(t))
}

func (t Type) validForVariable() bool {
	switch t {
	case Short, Int, Float, Double:
		return true
	}
	return false
}

// ErrFormat is returned when decoding malformed or unsupported files.
var ErrFormat = errors.New("ncfile: malformed or unsupported file")

// Dimension is a named axis. Length 0 marks the unlimited (record)
// dimension; a file may have at most one.
type Dimension struct {
	Name   string
	Length int
}

// Unlimited reports whether the dimension is the record dimension.
func (d Dimension) Unlimited() bool { return d.Length == 0 }

// Attribute is a named metadata value attached to a variable or to the
// file. Text carries Char attributes; Values carries numeric ones (encoded
// per Type).
type Attribute struct {
	Name   string
	Type   Type
	Text   string
	Values []float64
}

// TextAttribute returns a Char attribute.
func TextAttribute(name, text string) Attribute {
	return Attribute{Name: name, Type: Char, Text: text}
}

// NumericAttribute returns a numeric attribute of the given type.
func NumericAttribute(name string, t Type, values ...float64) Attribute {
	return Attribute{Name: name, Type: t, Values: values}
}

// Variable is an n-dimensional array over the file's dimensions.
type Variable struct {
	Name  string
	Type  Type
	Dims  []int // dimension IDs, slowest-varying first
	Attrs []Attribute

	data []float64 // row-major values; for record vars, all records concatenated
}

// File is an in-memory netCDF dataset that can be encoded to and decoded
// from the classic binary format.
type File struct {
	Dims        []Dimension
	GlobalAttrs []Attribute
	Vars        []Variable

	numRecs int
}

// New returns an empty dataset.
func New() *File { return &File{} }

// AddDimension defines a dimension and returns its ID. Length 0 declares
// the unlimited dimension.
func (f *File) AddDimension(name string, length int) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("ncfile: empty dimension name")
	}
	if length < 0 {
		return 0, fmt.Errorf("ncfile: negative length %d for dimension %q", length, name)
	}
	for _, d := range f.Dims {
		if d.Name == name {
			return 0, fmt.Errorf("ncfile: duplicate dimension %q", name)
		}
		if length == 0 && d.Unlimited() {
			return 0, fmt.Errorf("ncfile: second unlimited dimension %q", name)
		}
	}
	f.Dims = append(f.Dims, Dimension{Name: name, Length: length})
	return len(f.Dims) - 1, nil
}

// AddVariable defines a variable over the given dimension IDs and returns
// its ID. If the unlimited dimension is used it must come first.
func (f *File) AddVariable(name string, t Type, dims []int) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("ncfile: empty variable name")
	}
	if !t.validForVariable() {
		return 0, fmt.Errorf("ncfile: type %v not supported for variables", t)
	}
	for _, v := range f.Vars {
		if v.Name == name {
			return 0, fmt.Errorf("ncfile: duplicate variable %q", name)
		}
	}
	for i, d := range dims {
		if d < 0 || d >= len(f.Dims) {
			return 0, fmt.Errorf("ncfile: variable %q references unknown dimension %d", name, d)
		}
		if f.Dims[d].Unlimited() && i != 0 {
			return 0, fmt.Errorf("ncfile: unlimited dimension must be first in variable %q", name)
		}
	}
	f.Vars = append(f.Vars, Variable{Name: name, Type: t, Dims: append([]int(nil), dims...)})
	return len(f.Vars) - 1, nil
}

// AddGlobalAttribute attaches a file-level attribute.
func (f *File) AddGlobalAttribute(a Attribute) error {
	if err := checkAttr(a); err != nil {
		return err
	}
	f.GlobalAttrs = append(f.GlobalAttrs, a)
	return nil
}

// AddVariableAttribute attaches an attribute to variable varID.
func (f *File) AddVariableAttribute(varID int, a Attribute) error {
	if varID < 0 || varID >= len(f.Vars) {
		return fmt.Errorf("ncfile: unknown variable %d", varID)
	}
	if err := checkAttr(a); err != nil {
		return err
	}
	f.Vars[varID].Attrs = append(f.Vars[varID].Attrs, a)
	return nil
}

func checkAttr(a Attribute) error {
	if a.Name == "" {
		return fmt.Errorf("ncfile: empty attribute name")
	}
	switch a.Type {
	case Char:
		if a.Values != nil {
			return fmt.Errorf("ncfile: char attribute %q with numeric values", a.Name)
		}
	case Int, Float, Double, Short, Byte:
		if len(a.Values) == 0 {
			return fmt.Errorf("ncfile: numeric attribute %q with no values", a.Name)
		}
	default:
		return fmt.Errorf("ncfile: attribute %q has invalid type %v", a.Name, a.Type)
	}
	return nil
}

// recordVar reports whether variable v spans the unlimited dimension.
func (f *File) recordVar(v *Variable) bool {
	return len(v.Dims) > 0 && f.Dims[v.Dims[0]].Unlimited()
}

// elemsPerRecord returns the element count of one record (for record
// variables) or of the whole variable (for fixed ones).
func (f *File) elemsPerRecord(v *Variable) int {
	n := 1
	for i, d := range v.Dims {
		if i == 0 && f.Dims[d].Unlimited() {
			continue
		}
		n *= f.Dims[d].Length
	}
	return n
}

// SetData assigns the full contents of variable varID, row-major. For a
// record variable the length determines (and must agree with) the file's
// record count.
func (f *File) SetData(varID int, data []float64) error {
	if varID < 0 || varID >= len(f.Vars) {
		return fmt.Errorf("ncfile: unknown variable %d", varID)
	}
	v := &f.Vars[varID]
	per := f.elemsPerRecord(v)
	if f.recordVar(v) {
		if per == 0 {
			return fmt.Errorf("ncfile: variable %q has a zero-length fixed dimension", v.Name)
		}
		if len(data)%per != 0 {
			return fmt.Errorf("ncfile: variable %q data length %d not a multiple of record size %d",
				v.Name, len(data), per)
		}
		recs := len(data) / per
		if f.numRecs == 0 {
			f.numRecs = recs
		} else if recs != f.numRecs {
			return fmt.Errorf("ncfile: variable %q implies %d records, file has %d", v.Name, recs, f.numRecs)
		}
	} else if len(data) != per {
		return fmt.Errorf("ncfile: variable %q needs %d values, got %d", v.Name, per, len(data))
	}
	v.data = append([]float64(nil), data...)
	return nil
}

// Data returns a copy of the stored contents of variable varID.
func (f *File) Data(varID int) ([]float64, error) {
	if varID < 0 || varID >= len(f.Vars) {
		return nil, fmt.Errorf("ncfile: unknown variable %d", varID)
	}
	return append([]float64(nil), f.Vars[varID].data...), nil
}

// NumRecords returns the record count along the unlimited dimension.
func (f *File) NumRecords() int { return f.numRecs }

// VarID returns the ID of the named variable.
func (f *File) VarID(name string) (int, error) {
	for i := range f.Vars {
		if f.Vars[i].Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ncfile: no variable %q", name)
}
