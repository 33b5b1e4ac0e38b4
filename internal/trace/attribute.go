package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"insituviz/internal/power"
	"insituviz/internal/units"
)

// Unattributed is the phase name charged for metered time no span covers
// — the timeline's gaps, the paper's "everything else" band.
const Unattributed = "(unattributed)"

// Interval is one piece of the phase step function: during [Start, End)
// the innermost active span was Phase ("" when no span was open).
// Intervals are contiguous and non-overlapping — exactly one phase is
// charged at every instant, which is what makes per-phase energies sum to
// the metered total.
type Interval struct {
	Phase string
	Start units.Seconds
	End   units.Seconds
}

// PhaseIntervals flattens the lane's hierarchical spans into the phase
// step function: at every instant the *innermost* active span wins, so a
// "viz.sample" span nested inside an "io.readback" span claims its own
// time and the readback keeps only the remainder. Gaps between spans
// yield ""-phased intervals.
func (lt *LaneTimeline) PhaseIntervals() []Interval {
	if lt == nil || len(lt.Spans) == 0 {
		return nil
	}
	// Collect begin/end edges and sweep them in time order, maintaining
	// the active-span stack. Spans is sorted by (start, depth), so a
	// parent always precedes its children.
	type edge struct {
		ts    units.Seconds
		begin bool
		name  string
		order int // tiebreak: ends before begins, outer begins first
	}
	edges := make([]edge, 0, 2*len(lt.Spans))
	for i, s := range lt.Spans {
		edges = append(edges, edge{s.Start, true, s.Name, i})
		edges = append(edges, edge{s.End, false, s.Name, i})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].ts != edges[j].ts {
			return edges[i].ts < edges[j].ts
		}
		if edges[i].begin != edges[j].begin {
			return !edges[i].begin // ends first, so zero-length gaps don't invert nesting
		}
		if edges[i].begin {
			return edges[i].order < edges[j].order // outer span opens first
		}
		return edges[i].order > edges[j].order // inner span closes first
	})

	var out []Interval
	var stack []string
	prev := edges[0].ts
	for _, e := range edges {
		if e.ts > prev {
			phase := ""
			if len(stack) > 0 {
				phase = stack[len(stack)-1]
			}
			// Merge with the previous interval when the phase repeats.
			if n := len(out); n > 0 && out[n-1].Phase == phase && out[n-1].End == prev {
				out[n-1].End = e.ts
			} else {
				out = append(out, Interval{Phase: phase, Start: prev, End: e.ts})
			}
			prev = e.ts
		}
		if e.begin {
			stack = append(stack, e.name)
		} else if len(stack) > 0 {
			stack = stack[:len(stack)-1]
		}
	}
	return out
}

// PhaseEnergy is one row of an attribution: the time a phase was active
// within the meter's window, the energy the profile charged to it, and
// the resulting average draw.
type PhaseEnergy struct {
	Phase    string        `json:"phase"`
	Time     units.Seconds `json:"seconds"`
	Energy   units.Joules  `json:"joules"`
	AvgPower units.Watts   `json:"avg_watts"`
}

// Attribution is the result of joining a phase timeline against one
// metered power profile: per-phase energies that sum (exactly, up to
// float64 rounding) to the profile's total energy, because every metered
// instant is charged to exactly one phase — named, "", or outside-trace
// time all land in Unattributed.
type Attribution struct {
	Meter  string        `json:"meter"`
	Total  units.Joules  `json:"total_joules"`
	Window units.Seconds `json:"window_seconds"`
	// Phases is sorted by phase name; Unattributed sorts with the rest.
	Phases []PhaseEnergy `json:"phases"`
}

// Phase returns the named row, or a zero row if the phase never ran.
func (a *Attribution) Phase(name string) PhaseEnergy {
	for _, p := range a.Phases {
		if p.Phase == name {
			return p
		}
	}
	return PhaseEnergy{Phase: name}
}

// Attribute joins the phase step function against a metered profile — the
// paper's method: overlay the power profile on the execution timeline and
// integrate each phase's share. Each profile sample [a, b) with average
// power P contributes P x overlap(a, b, interval) to the interval's
// phase; sample time covered by no interval is charged to Unattributed.
// Samples honor LastPartial: the final interval is scaled by the observed
// fraction, exactly as Profile.Energy integrates it.
func Attribute(meter string, intervals []Interval, prof *power.Profile) (*Attribution, error) {
	if prof == nil {
		return nil, fmt.Errorf("trace: nil profile")
	}
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("trace: attribute %q: %w", meter, err)
	}
	for i, iv := range intervals {
		if iv.End < iv.Start {
			return nil, fmt.Errorf("trace: interval %d inverted [%v, %v]", i, iv.Start, iv.End)
		}
		if i > 0 && iv.Start < intervals[i-1].End {
			return nil, fmt.Errorf("trace: interval %d overlaps its predecessor", i)
		}
	}

	type acc struct {
		time   float64
		energy float64
	}
	phases := map[string]*acc{}
	charge := func(name string, dt, watts float64) {
		if dt <= 0 {
			return
		}
		if name == "" {
			name = Unattributed
		}
		a := phases[name]
		if a == nil {
			a = &acc{}
			phases[name] = a
		}
		a.time += dt
		a.energy += watts * dt
	}

	var window float64
	for i, w := range prof.Powers {
		frac := 1.0
		if i == len(prof.Powers)-1 {
			// Clamped: a degenerate LastPartial (outside (0, 1], or NaN
			// from a power window shorter than one meter period) must
			// not turn the overlap weight into a NaN that silently
			// uncharges the final sample and poisons the window total.
			frac = prof.LastFraction()
		}
		a := float64(prof.Start) + float64(i)*float64(prof.Interval)
		dur := float64(prof.Interval) * frac
		b := a + dur
		window += dur
		covered := 0.0
		for _, iv := range intervals {
			lo, hi := float64(iv.Start), float64(iv.End)
			if lo < a {
				lo = a
			}
			if hi > b {
				hi = b
			}
			if hi > lo {
				charge(iv.Phase, hi-lo, float64(w))
				covered += hi - lo
			}
		}
		// The remainder keeps the books balanced: charged time per
		// sample is exactly the sample duration, so energies sum to
		// Profile.Energy up to rounding.
		if rem := dur - covered; rem > 0 {
			charge(Unattributed, rem, float64(w))
		}
	}

	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)

	att := &Attribution{Meter: meter, Window: units.Seconds(window)}
	for _, name := range names {
		a := phases[name]
		row := PhaseEnergy{
			Phase:  name,
			Time:   units.Seconds(a.time),
			Energy: units.Joules(a.energy),
		}
		if a.time > 0 {
			row.AvgPower = units.Watts(a.energy / a.time)
		}
		att.Phases = append(att.Phases, row)
		att.Total += row.Energy
	}
	return att, nil
}

// WriteJSON renders the attribution as indented JSON with a trailing
// newline. Phases are pre-sorted, so the rendering is byte-stable for
// identical attributions.
func (a *Attribution) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: marshal attribution: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteCSV renders the attribution as CSV rows (phase, seconds, joules,
// avg_watts) in phase-name order, byte-stable for identical attributions.
func (a *Attribution) WriteCSV(w io.Writer) error {
	if w == nil {
		return fmt.Errorf("trace: nil writer")
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"phase", "seconds", "joules", "avg_watts"}); err != nil {
		return err
	}
	for _, p := range a.Phases {
		if err := cw.Write([]string{
			p.Phase,
			strconv.FormatFloat(float64(p.Time), 'g', -1, 64),
			strconv.FormatFloat(float64(p.Energy), 'g', -1, 64),
			strconv.FormatFloat(float64(p.AvgPower), 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// PowerModel maps phase names to power draw, the inverse of attribution:
// given a live run's phase timeline (wall clock, no PDU attached), it
// synthesizes the ground-truth power trace the paper's machine would have
// drawn, which a power.Meter then samples into the 1 Hz-style profile the
// attribution consumes. Defaults are the Caddy per-node calibration.
type PowerModel struct {
	// Phases maps a phase name to its active draw. Phases not listed
	// draw Busy (a running but unmodeled phase).
	Phases map[string]units.Watts
	// Busy is the draw of unlisted named phases; Idle is the draw of
	// unattributed gaps.
	Busy units.Watts
	Idle units.Watts
}

// NodePowerModel returns the per-node Caddy calibration (100 W idle,
// ~293 W busy) with the paper's near-busy I/O draw for io.* phases — the
// measured fact that polling keeps cores hot during I/O waits.
func NodePowerModel() PowerModel {
	const idle, busy = power.CaddyNodeIdleWatts, power.CaddyNodeBusyWatts
	ioWait := idle + 0.95*(busy-idle)
	return PowerModel{
		Phases: map[string]units.Watts{
			"io.dump":   units.Watts(ioWait),
			"io.read":   units.Watts(ioWait),
			"io.commit": units.Watts(ioWait),
		},
		Busy: busy,
		Idle: idle,
	}
}

// watts returns the model draw for a phase name.
func (m PowerModel) watts(phase string) units.Watts {
	if phase == "" || phase == Unattributed {
		return m.Idle
	}
	if w, ok := m.Phases[phase]; ok {
		return w
	}
	return m.Busy
}

// Trace synthesizes the piecewise-constant ground-truth power trace of a
// phase step function under the model. Intervals must be contiguous in
// time (PhaseIntervals output is).
func (m PowerModel) Trace(intervals []Interval) (*power.Trace, error) {
	tr := &power.Trace{}
	for _, iv := range intervals {
		if err := tr.Append(iv.Start, iv.End, m.watts(iv.Phase)); err != nil {
			return nil, fmt.Errorf("trace: power model: %w", err)
		}
	}
	return tr, nil
}
