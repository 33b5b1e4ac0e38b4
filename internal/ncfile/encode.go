package ncfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// File-format tag values.
const (
	tagDimension = 0x0A
	tagVariable  = 0x0B
	tagAttribute = 0x0C
)

const int32Max = math.MaxInt32

// pad4 rounds n up to a multiple of 4, the classic format's alignment unit.
func pad4(n int) int { return (n + 3) &^ 3 }

// layout holds the computed offsets of an encoding pass.
type layout struct {
	version     byte
	headerSize  int64
	varBegin    []int64
	varVsize    []int64 // padded external size (per record for record vars)
	recSize     int64   // stride between consecutive records
	recordStart int64
	fileSize    int64
}

func nameSize(name string) int { return 4 + pad4(len(name)) }

func attrSize(a Attribute) int {
	n := nameSize(a.Name) + 4 + 4 // name, type, nelems
	if a.Type == Char {
		n += pad4(len(a.Text))
	} else {
		n += pad4(len(a.Values) * a.Type.Size())
	}
	return n
}

func attrListSize(attrs []Attribute) int {
	n := 8 // tag + nelems (ABSENT when empty)
	for _, a := range attrs {
		n += attrSize(a)
	}
	return n
}

// computeLayout determines offsets for the given offset width (version 1
// uses 4-byte begins, version 2 uses 8-byte begins).
func (f *File) computeLayout(version byte) (*layout, error) {
	l := &layout{version: version}
	beginWidth := 4
	if version == 2 {
		beginWidth = 8
	}

	h := int64(4 + 4) // magic + numrecs
	h += 8            // dim_list tag + nelems
	for _, d := range f.Dims {
		h += int64(nameSize(d.Name)) + 4
	}
	h += int64(attrListSize(f.GlobalAttrs))
	h += 8 // var_list tag + nelems
	for i := range f.Vars {
		v := &f.Vars[i]
		h += int64(nameSize(v.Name))
		h += 4 + int64(4*len(v.Dims)) // ndims + dimids
		h += int64(attrListSize(v.Attrs))
		h += 4 + 4 + int64(beginWidth) // nc_type + vsize + begin
	}
	l.headerSize = h

	l.varBegin = make([]int64, len(f.Vars))
	l.varVsize = make([]int64, len(f.Vars))

	// Single-record-variable exception: when exactly one record variable
	// exists and it is byte/char/short, records are packed without padding.
	var recVars []int
	for i := range f.Vars {
		if f.recordVar(&f.Vars[i]) {
			recVars = append(recVars, i)
		}
	}
	packException := len(recVars) == 1 && f.Vars[recVars[0]].Type.Size() < 4

	for i := range f.Vars {
		v := &f.Vars[i]
		raw := int64(f.elemsPerRecord(v)) * int64(v.Type.Size())
		sz := int64(pad4(int(raw)))
		if packException && f.recordVar(v) {
			sz = raw
		}
		if sz > int32Max {
			return nil, fmt.Errorf("ncfile: variable %q slab of %d bytes exceeds classic-format limit", v.Name, sz)
		}
		l.varVsize[i] = sz
	}

	// Fixed variables first, in definition order.
	off := l.headerSize
	for i := range f.Vars {
		if f.recordVar(&f.Vars[i]) {
			continue
		}
		l.varBegin[i] = off
		off += l.varVsize[i]
	}
	l.recordStart = off
	var rec int64
	for _, i := range recVars {
		l.varBegin[i] = l.recordStart + rec
		rec += l.varVsize[i]
	}
	l.recSize = rec
	l.fileSize = l.recordStart + rec*int64(f.numRecs)

	if version == 1 {
		for _, b := range l.varBegin {
			if b > int32Max {
				return nil, fmt.Errorf("ncfile: offsets exceed CDF-1 limits")
			}
		}
	}
	return l, nil
}

func (f *File) layoutAuto() (*layout, error) {
	l, err := f.computeLayout(1)
	if err == nil {
		return l, nil
	}
	return f.computeLayout(2)
}

// Encode serializes the dataset in netCDF classic format (CDF-1, or CDF-2
// when offsets demand 64 bits) and returns the number of bytes written.
func (f *File) Encode(w io.Writer) (int64, error) {
	for i := range f.Vars {
		v := &f.Vars[i]
		want := f.elemsPerRecord(v)
		if f.recordVar(v) {
			want *= f.numRecs
		}
		if len(v.data) != want {
			return 0, fmt.Errorf("ncfile: variable %q has %d values, want %d (SetData missing?)",
				v.Name, len(v.data), want)
		}
	}
	l, err := f.layoutAuto()
	if err != nil {
		return 0, err
	}

	var buf bytes.Buffer
	buf.Grow(int(l.fileSize))
	be := binary.BigEndian

	putI32 := func(v int32) {
		var b [4]byte
		be.PutUint32(b[:], uint32(v))
		buf.Write(b[:])
	}
	putName := func(s string) {
		putI32(int32(len(s)))
		buf.WriteString(s)
		for p := len(s); p%4 != 0; p++ {
			buf.WriteByte(0)
		}
	}
	putAttr := func(a Attribute) error {
		putName(a.Name)
		putI32(int32(a.Type))
		if a.Type == Char {
			putI32(int32(len(a.Text)))
			buf.WriteString(a.Text)
			for p := len(a.Text); p%4 != 0; p++ {
				buf.WriteByte(0)
			}
			return nil
		}
		putI32(int32(len(a.Values)))
		start := buf.Len()
		for _, v := range a.Values {
			if err := putValue(&buf, a.Type, v); err != nil {
				return fmt.Errorf("attribute %q: %w", a.Name, err)
			}
		}
		for p := buf.Len() - start; p%4 != 0; p++ {
			buf.WriteByte(0)
		}
		return nil
	}
	putAttrList := func(attrs []Attribute) error {
		if len(attrs) == 0 {
			putI32(0)
			putI32(0)
			return nil
		}
		putI32(tagAttribute)
		putI32(int32(len(attrs)))
		for _, a := range attrs {
			if err := putAttr(a); err != nil {
				return err
			}
		}
		return nil
	}

	buf.WriteString("CDF")
	buf.WriteByte(l.version)
	putI32(int32(f.numRecs))

	if len(f.Dims) == 0 {
		putI32(0)
		putI32(0)
	} else {
		putI32(tagDimension)
		putI32(int32(len(f.Dims)))
		for _, d := range f.Dims {
			putName(d.Name)
			putI32(int32(d.Length))
		}
	}
	if err := putAttrList(f.GlobalAttrs); err != nil {
		return 0, err
	}
	if len(f.Vars) == 0 {
		putI32(0)
		putI32(0)
	} else {
		putI32(tagVariable)
		putI32(int32(len(f.Vars)))
		for i := range f.Vars {
			v := &f.Vars[i]
			putName(v.Name)
			putI32(int32(len(v.Dims)))
			for _, d := range v.Dims {
				putI32(int32(d))
			}
			if err := putAttrList(v.Attrs); err != nil {
				return 0, err
			}
			putI32(int32(v.Type))
			putI32(int32(l.varVsize[i]))
			if l.version == 1 {
				putI32(int32(l.varBegin[i]))
			} else {
				var b [8]byte
				be.PutUint64(b[:], uint64(l.varBegin[i]))
				buf.Write(b[:])
			}
		}
	}
	if int64(buf.Len()) != l.headerSize {
		return 0, fmt.Errorf("ncfile: internal error: header is %d bytes, computed %d", buf.Len(), l.headerSize)
	}

	// Fixed variable data.
	for i := range f.Vars {
		v := &f.Vars[i]
		if f.recordVar(v) {
			continue
		}
		start := buf.Len()
		for _, val := range v.data {
			if err := putValue(&buf, v.Type, val); err != nil {
				return 0, fmt.Errorf("variable %q: %w", v.Name, err)
			}
		}
		for p := buf.Len() - start; int64(p) < l.varVsize[i]; p++ {
			buf.WriteByte(0)
		}
	}
	// Record data, interleaved per record. Records of zero bytes write
	// nothing, so a record count from an untrusted header with no record
	// data behind it costs no loop.
	for r := 0; l.recSize > 0 && r < f.numRecs; r++ {
		for i := range f.Vars {
			v := &f.Vars[i]
			if !f.recordVar(v) {
				continue
			}
			per := f.elemsPerRecord(v)
			start := buf.Len()
			for _, val := range v.data[r*per : (r+1)*per] {
				if err := putValue(&buf, v.Type, val); err != nil {
					return 0, fmt.Errorf("variable %q: %w", v.Name, err)
				}
			}
			for p := buf.Len() - start; int64(p) < l.varVsize[i]; p++ {
				buf.WriteByte(0)
			}
		}
	}
	if int64(buf.Len()) != l.fileSize {
		return 0, fmt.Errorf("ncfile: internal error: wrote %d bytes, computed %d", buf.Len(), l.fileSize)
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// putValue appends one big-endian external value.
func putValue(buf *bytes.Buffer, t Type, v float64) error {
	be := binary.BigEndian
	switch t {
	case Short:
		r := math.Round(v)
		if r < math.MinInt16 || r > math.MaxInt16 {
			return fmt.Errorf("ncfile: value %g out of NC_SHORT range", v)
		}
		var b [2]byte
		be.PutUint16(b[:], uint16(int16(r)))
		buf.Write(b[:])
	case Int:
		r := math.Round(v)
		if r < math.MinInt32 || r > math.MaxInt32 {
			return fmt.Errorf("ncfile: value %g out of NC_INT range", v)
		}
		var b [4]byte
		be.PutUint32(b[:], uint32(int32(r)))
		buf.Write(b[:])
	case Float:
		var b [4]byte
		be.PutUint32(b[:], math.Float32bits(float32(v)))
		buf.Write(b[:])
	case Double:
		var b [8]byte
		be.PutUint64(b[:], math.Float64bits(v))
		buf.Write(b[:])
	case Byte:
		r := math.Round(v)
		if r < math.MinInt8 || r > math.MaxInt8 {
			return fmt.Errorf("ncfile: value %g out of NC_BYTE range", v)
		}
		buf.WriteByte(byte(int8(r)))
	default:
		return fmt.Errorf("ncfile: cannot encode type %v", t)
	}
	return nil
}

// WriteFile encodes the dataset to the named file and returns its size.
func (f *File) WriteFile(path string) (int64, error) {
	out, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("ncfile: %w", err)
	}
	n, err := f.Encode(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return n, err
}
