package ncfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
)

// decoder walks a classic-format byte slice.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) need(n int) error {
	if d.pos+n > len(d.data) {
		return fmt.Errorf("%w: truncated at offset %d (need %d bytes)", ErrFormat, d.pos, n)
	}
	return nil
}

func (d *decoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) i32() (int32, error) {
	v, err := d.u32()
	return int32(v), err
}

func (d *decoder) name() (string, error) {
	n, err := d.i32()
	if err != nil {
		return "", err
	}
	if n < 0 || n > 1<<20 {
		return "", fmt.Errorf("%w: implausible name length %d", ErrFormat, n)
	}
	padded := pad4(int(n))
	if err := d.need(padded); err != nil {
		return "", err
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += padded
	return s, nil
}

func (d *decoder) attrList() ([]Attribute, error) {
	tag, err := d.i32()
	if err != nil {
		return nil, err
	}
	count, err := d.i32()
	if err != nil {
		return nil, err
	}
	if tag == 0 && count == 0 {
		return nil, nil
	}
	if tag != tagAttribute || count < 0 {
		return nil, fmt.Errorf("%w: bad attribute list header (tag %d, count %d)", ErrFormat, tag, count)
	}
	// count is untrusted; cap the initial allocation and let append grow.
	capHint := count
	if capHint > 1024 {
		capHint = 1024
	}
	attrs := make([]Attribute, 0, capHint)
	for i := int32(0); i < count; i++ {
		name, err := d.name()
		if err != nil {
			return nil, err
		}
		t32, err := d.i32()
		if err != nil {
			return nil, err
		}
		t := Type(t32)
		nelems, err := d.i32()
		if err != nil {
			return nil, err
		}
		if nelems < 0 {
			return nil, fmt.Errorf("%w: negative attribute length", ErrFormat)
		}
		a := Attribute{Name: name, Type: t}
		if t == Char {
			padded := pad4(int(nelems))
			if err := d.need(padded); err != nil {
				return nil, err
			}
			a.Text = string(d.data[d.pos : d.pos+int(nelems)])
			d.pos += padded
		} else {
			sz := t.Size()
			if sz == 0 {
				return nil, fmt.Errorf("%w: attribute %q has invalid type %d", ErrFormat, name, t32)
			}
			padded := pad4(int(nelems) * sz)
			if err := d.need(padded); err != nil {
				return nil, err
			}
			a.Values = make([]float64, nelems)
			for k := range a.Values {
				a.Values[k] = getValue(d.data[d.pos+k*sz:], t)
			}
			d.pos += padded
		}
		attrs = append(attrs, a)
	}
	return attrs, nil
}

// getValue decodes one big-endian external value starting at b[0].
func getValue(b []byte, t Type) float64 {
	be := binary.BigEndian
	switch t {
	case Byte:
		return float64(int8(b[0]))
	case Short:
		return float64(int16(be.Uint16(b)))
	case Int:
		return float64(int32(be.Uint32(b)))
	case Float:
		return float64(math.Float32frombits(be.Uint32(b)))
	case Double:
		return math.Float64frombits(be.Uint64(b))
	}
	return math.NaN()
}

// Decode parses a netCDF classic (CDF-1 or CDF-2) byte image, including all
// variable data.
func Decode(data []byte) (*File, error) {
	d := &decoder{data: data}
	if err := d.need(4); err != nil {
		return nil, err
	}
	if string(data[0:3]) != "CDF" {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, data[0:3])
	}
	version := data[3]
	if version != 1 && version != 2 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, version)
	}
	d.pos = 4

	f := New()
	numRecs, err := d.i32()
	if err != nil {
		return nil, err
	}
	if numRecs < 0 {
		return nil, fmt.Errorf("%w: streaming record count not supported", ErrFormat)
	}
	f.numRecs = int(numRecs)

	// Dimensions.
	tag, err := d.i32()
	if err != nil {
		return nil, err
	}
	count, err := d.i32()
	if err != nil {
		return nil, err
	}
	switch {
	case tag == 0 && count == 0:
	case tag == tagDimension && count >= 0:
		hasUnlimited := false
		for i := int32(0); i < count; i++ {
			name, err := d.name()
			if err != nil {
				return nil, err
			}
			length, err := d.i32()
			if err != nil {
				return nil, err
			}
			if length < 0 {
				return nil, fmt.Errorf("%w: negative dimension length", ErrFormat)
			}
			if length == 0 && hasUnlimited {
				return nil, fmt.Errorf("%w: second unlimited dimension %q", ErrFormat, name)
			}
			hasUnlimited = hasUnlimited || length == 0
			f.Dims = append(f.Dims, Dimension{Name: name, Length: int(length)})
		}
	default:
		return nil, fmt.Errorf("%w: bad dimension list header (tag %d)", ErrFormat, tag)
	}

	if f.GlobalAttrs, err = d.attrList(); err != nil {
		return nil, err
	}

	// Variables.
	tag, err = d.i32()
	if err != nil {
		return nil, err
	}
	count, err = d.i32()
	if err != nil {
		return nil, err
	}
	type varMeta struct {
		begin int64
		vsize int64
	}
	var metas []varMeta
	switch {
	case tag == 0 && count == 0:
	case tag == tagVariable && count >= 0:
		for i := int32(0); i < count; i++ {
			name, err := d.name()
			if err != nil {
				return nil, err
			}
			ndims, err := d.i32()
			if err != nil {
				return nil, err
			}
			if ndims < 0 || ndims > 1024 {
				return nil, fmt.Errorf("%w: implausible rank %d for %q", ErrFormat, ndims, name)
			}
			dims := make([]int, ndims)
			for k := range dims {
				id, err := d.i32()
				if err != nil {
					return nil, err
				}
				if id < 0 || int(id) >= len(f.Dims) {
					return nil, fmt.Errorf("%w: variable %q references dimension %d of %d", ErrFormat, name, id, len(f.Dims))
				}
				if k != 0 && f.Dims[id].Unlimited() {
					return nil, fmt.Errorf("%w: unlimited dimension not first in variable %q", ErrFormat, name)
				}
				dims[k] = int(id)
			}
			attrs, err := d.attrList()
			if err != nil {
				return nil, err
			}
			t32, err := d.i32()
			if err != nil {
				return nil, err
			}
			vsize, err := d.i32()
			if err != nil {
				return nil, err
			}
			var begin int64
			if version == 1 {
				b, err := d.i32()
				if err != nil {
					return nil, err
				}
				begin = int64(b)
			} else {
				if err := d.need(8); err != nil {
					return nil, err
				}
				begin = int64(binary.BigEndian.Uint64(d.data[d.pos:]))
				d.pos += 8
			}
			t := Type(t32)
			if !t.validForVariable() {
				return nil, fmt.Errorf("%w: variable %q has unsupported type %v", ErrFormat, name, t)
			}
			f.Vars = append(f.Vars, Variable{Name: name, Type: t, Dims: dims, Attrs: attrs})
			metas = append(metas, varMeta{begin: begin, vsize: int64(vsize)})
		}
	default:
		return nil, fmt.Errorf("%w: bad variable list header (tag %d)", ErrFormat, tag)
	}

	// Record stride = sum of record variables' vsizes (single-small-var
	// packing exception handled implicitly because that vsize is unpadded).
	var recSize int64
	hasRecordVars := false
	for i := range f.Vars {
		if f.recordVar(&f.Vars[i]) {
			hasRecordVars = true
			recSize += metas[i].vsize
		}
	}
	// Untrusted record counts: the records must physically fit in the file.
	if hasRecordVars && f.numRecs > 0 {
		if recSize <= 0 {
			return nil, fmt.Errorf("%w: %d records with non-positive record size", ErrFormat, f.numRecs)
		}
		if int64(f.numRecs) > int64(len(data))/recSize+1 {
			return nil, fmt.Errorf("%w: record count %d exceeds the file", ErrFormat, f.numRecs)
		}
	}

	for i := range f.Vars {
		v := &f.Vars[i]
		// The header is untrusted: compute the element count with overflow
		// checks and verify every slab lies inside the file BEFORE
		// allocating, so corrupt dimension lengths cannot drive huge
		// allocations.
		per, err := checkedElems(f, v, len(data))
		if err != nil {
			return nil, err
		}
		sz := v.Type.Size()
		slab := int64(per) * int64(sz)
		if f.recordVar(v) {
			total := int64(per) * int64(f.numRecs)
			if f.numRecs > 0 && total/int64(f.numRecs) != int64(per) {
				return nil, fmt.Errorf("%w: variable %q record count overflows", ErrFormat, v.Name)
			}
			if total*8 > 8*int64(len(data))+int64(len(data)) {
				return nil, fmt.Errorf("%w: variable %q larger than file", ErrFormat, v.Name)
			}
			if per == 0 {
				v.data = nil
				continue
			}
			for r := 0; r < f.numRecs; r++ {
				base := metas[i].begin + int64(r)*recSize
				if base < 0 || slab < 0 || base+slab > int64(len(data)) {
					return nil, fmt.Errorf("%w: record %d of %q outside file", ErrFormat, r, v.Name)
				}
			}
			v.data = make([]float64, total)
			for r := 0; r < f.numRecs; r++ {
				base := metas[i].begin + int64(r)*recSize
				for k := 0; k < per; k++ {
					v.data[r*per+k] = getValue(data[base+int64(k*sz):], v.Type)
				}
			}
		} else {
			base := metas[i].begin
			if base < 0 || slab < 0 || base+slab > int64(len(data)) {
				return nil, fmt.Errorf("%w: data of %q outside file", ErrFormat, v.Name)
			}
			v.data = make([]float64, per)
			for k := 0; k < per; k++ {
				v.data[k] = getValue(data[base+int64(k*sz):], v.Type)
			}
		}
	}
	return f, nil
}

// ReadFile decodes the named netCDF file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ncfile: %w", err)
	}
	return Decode(data)
}

// checkedElems computes a variable's per-record element count from
// untrusted dimension lengths, rejecting products that overflow or that
// could not possibly fit in a file of fileSize bytes.
func checkedElems(f *File, v *Variable, fileSize int) (int, error) {
	per := 1
	for i, d := range v.Dims {
		if i == 0 && f.Dims[d].Unlimited() {
			continue
		}
		length := f.Dims[d].Length
		if length < 0 {
			return 0, fmt.Errorf("%w: negative dimension in %q", ErrFormat, v.Name)
		}
		if length > 0 && per > (1<<62)/length {
			return 0, fmt.Errorf("%w: variable %q size overflows", ErrFormat, v.Name)
		}
		per *= length
	}
	sz := v.Type.Size()
	if sz == 0 {
		return 0, fmt.Errorf("%w: variable %q has no element size", ErrFormat, v.Name)
	}
	if int64(per)*int64(sz) > int64(fileSize) {
		return 0, fmt.Errorf("%w: variable %q (%d elements) exceeds the file", ErrFormat, v.Name, per)
	}
	return per, nil
}
