// Package vizpipe is a small dataflow visualization framework in the
// spirit of ParaView, the framework the paper couples MPAS-O to: datasets
// flow through chains of filters into sinks (renderers). The paper's
// visualization task — derive Okubo-Weiss, threshold the rotation-dominated
// cores, render — is exactly such a pipeline, and both the in-situ and the
// post-processing workflows execute the same filter chain, which is what
// makes their outputs scientifically interchangeable. Threshold is the one
// filter that chain needs.
package vizpipe

import (
	"fmt"

	"insituviz/internal/mesh"
)

// Dataset is a snapshot of named cell-centered fields on a mesh, with an
// optional activity mask produced by selection filters. A nil mask means
// every cell is active.
type Dataset struct {
	Mesh   *mesh.Mesh
	Time   float64 // simulated seconds
	Fields map[string][]float64
	Mask   []bool
}

// NewDataset builds a dataset over a mesh.
func NewDataset(m *mesh.Mesh, time float64) (*Dataset, error) {
	if m == nil || m.NCells() == 0 {
		return nil, fmt.Errorf("vizpipe: nil or empty mesh")
	}
	return &Dataset{Mesh: m, Time: time, Fields: map[string][]float64{}}, nil
}

// AddField attaches a cell field; the slice is copied.
func (ds *Dataset) AddField(name string, values []float64) error {
	if name == "" {
		return fmt.Errorf("vizpipe: empty field name")
	}
	if len(values) != ds.Mesh.NCells() {
		return fmt.Errorf("vizpipe: field %q has %d values for %d cells", name, len(values), ds.Mesh.NCells())
	}
	ds.Fields[name] = append([]float64(nil), values...)
	return nil
}

// Field returns a named field.
func (ds *Dataset) Field(name string) ([]float64, error) {
	f, ok := ds.Fields[name]
	if !ok {
		return nil, fmt.Errorf("vizpipe: no field %q", name)
	}
	return f, nil
}

// Active reports whether cell ci passes the mask.
func (ds *Dataset) Active(ci int) bool {
	return ds.Mask == nil || ds.Mask[ci]
}

// clone returns a shallow-mesh, deep-field copy for filters to mutate.
func (ds *Dataset) clone() *Dataset {
	out := &Dataset{Mesh: ds.Mesh, Time: ds.Time, Fields: map[string][]float64{}}
	for k, v := range ds.Fields {
		out.Fields[k] = append([]float64(nil), v...)
	}
	if ds.Mask != nil {
		out.Mask = append([]bool(nil), ds.Mask...)
	}
	return out
}

// Filter transforms a dataset. Filters must not mutate their input.
type Filter interface {
	Name() string
	Apply(ds *Dataset) (*Dataset, error)
}

// Pipeline is an ordered filter chain.
type Pipeline struct {
	filters []Filter
}

// Append adds a filter stage.
func (p *Pipeline) Append(f Filter) error {
	if f == nil {
		return fmt.Errorf("vizpipe: nil filter")
	}
	p.filters = append(p.filters, f)
	return nil
}

// Execute runs the chain on ds, returning the final dataset. The input is
// never mutated.
func (p *Pipeline) Execute(ds *Dataset) (*Dataset, error) {
	if ds == nil {
		return nil, fmt.Errorf("vizpipe: nil dataset")
	}
	cur := ds.clone()
	for i, f := range p.filters {
		next, err := f.Apply(cur)
		if err != nil {
			return nil, fmt.Errorf("vizpipe: stage %d (%s): %w", i, f.Name(), err)
		}
		if next == nil {
			return nil, fmt.Errorf("vizpipe: stage %d (%s) returned nil", i, f.Name())
		}
		cur = next
	}
	return cur, nil
}

// Threshold masks cells whose field value lies outside [Min, Max] — the
// eddy-core selection W < -0.2*sigma is a Threshold with Max negative.
// It intersects with any existing mask.
type Threshold struct {
	Field    string
	Min, Max float64
}

// Name implements Filter.
func (t *Threshold) Name() string { return "threshold(" + t.Field + ")" }

// Apply implements Filter.
func (t *Threshold) Apply(ds *Dataset) (*Dataset, error) {
	if t.Min > t.Max {
		return nil, fmt.Errorf("threshold range [%g, %g] is empty", t.Min, t.Max)
	}
	f, err := ds.Field(t.Field)
	if err != nil {
		return nil, err
	}
	out := ds.clone()
	mask := make([]bool, len(f))
	for ci, v := range f {
		mask[ci] = v >= t.Min && v <= t.Max && ds.Active(ci)
	}
	out.Mask = mask
	return out, nil
}
