// Package units provides strongly typed physical quantities used throughout
// the insituviz library: simulated time, power, energy, and data sizes.
//
// The cluster simulator, the power meters, and the analytical model all
// exchange values in these types so that unit errors (e.g. adding watts to
// joules, or mixing simulated seconds with wall-clock seconds) become type
// errors instead of silent bugs.
package units

import (
	"fmt"
	"math"
)

// Seconds is a span of simulated time, in seconds. The cluster simulator
// advances a simulated clock measured in Seconds; it is deliberately a
// distinct type from time.Duration so that simulated and wall-clock time
// cannot be confused.
type Seconds float64

// String formats the span with an adaptive unit.
func (s Seconds) String() string {
	v := float64(s)
	switch {
	case math.Abs(v) >= 86400:
		return fmt.Sprintf("%.2f d", v/86400)
	case math.Abs(v) >= 3600:
		return fmt.Sprintf("%.2f h", v/3600)
	case math.Abs(v) >= 60:
		return fmt.Sprintf("%.2f min", v/60)
	default:
		return fmt.Sprintf("%.2f s", v)
	}
}

// Hours constructs a Seconds value from a number of hours.
func Hours(h float64) Seconds { return Seconds(h * 3600) }

// Minutes constructs a Seconds value from a number of minutes.
func Minutes(m float64) Seconds { return Seconds(m * 60) }

// Days constructs a Seconds value from a number of days.
func Days(d float64) Seconds { return Seconds(d * 86400) }

// Years constructs a Seconds value from a number of (365-day) years, the
// convention the paper uses for its 100-year what-if scenarios.
func Years(y float64) Seconds { return Seconds(y * 365 * 86400) }

// Watts is instantaneous electrical power.
type Watts float64

// Kilowatts reports the power in kW.
func (w Watts) Kilowatts() float64 { return float64(w) / 1e3 }

// String formats the power with an adaptive unit.
func (w Watts) String() string {
	v := float64(w)
	switch {
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.2f MW", v/1e6)
	case math.Abs(v) >= 1e3:
		return fmt.Sprintf("%.2f kW", v/1e3)
	default:
		return fmt.Sprintf("%.1f W", v)
	}
}

// Joules is an amount of energy.
type Joules float64

// Megajoules reports the energy in MJ.
func (j Joules) Megajoules() float64 { return float64(j) / 1e6 }

// String formats the energy with an adaptive unit.
func (j Joules) String() string {
	v := float64(j)
	switch {
	case math.Abs(v) >= 1e9:
		return fmt.Sprintf("%.2f GJ", v/1e9)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.2f MJ", v/1e6)
	case math.Abs(v) >= 1e3:
		return fmt.Sprintf("%.2f kJ", v/1e3)
	default:
		return fmt.Sprintf("%.1f J", v)
	}
}

// Energy returns the energy dissipated by holding power w for span s.
func Energy(w Watts, s Seconds) Joules { return Joules(float64(w) * float64(s)) }

// Bytes is a data size. It is signed so that deltas can be represented, but
// all sizes handled by the library are non-negative.
type Bytes int64

// Standard binary and decimal size constants. The paper reports storage in
// decimal GB (230 GB, 7.7 TB, 160 MB/s), so decimal units are primary.
const (
	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12
)

// String formats the size with an adaptive decimal unit.
func (b Bytes) String() string {
	v := float64(b)
	switch {
	case math.Abs(v) >= float64(TB):
		return fmt.Sprintf("%.2f TB", v/float64(TB))
	case math.Abs(v) >= float64(GB):
		return fmt.Sprintf("%.2f GB", v/float64(GB))
	case math.Abs(v) >= float64(MB):
		return fmt.Sprintf("%.2f MB", v/float64(MB))
	case math.Abs(v) >= float64(KB):
		return fmt.Sprintf("%.2f kB", v/float64(KB))
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}

// Gigabytes constructs a Bytes value from decimal GB.
func Gigabytes(gb float64) Bytes { return Bytes(gb * float64(GB)) }

// Terabytes constructs a Bytes value from decimal TB.
func Terabytes(tb float64) Bytes { return Bytes(tb * float64(TB)) }

// BytesPerSecond is a data transfer rate.
type BytesPerSecond float64

// MegabytesPerSecond constructs a rate from decimal MB/s.
func MegabytesPerSecond(mbps float64) BytesPerSecond {
	return BytesPerSecond(mbps * float64(MB))
}

// String formats the rate with an adaptive decimal unit.
func (r BytesPerSecond) String() string {
	v := float64(r)
	switch {
	case math.Abs(v) >= float64(GB):
		return fmt.Sprintf("%.2f GB/s", v/float64(GB))
	case math.Abs(v) >= float64(MB):
		return fmt.Sprintf("%.2f MB/s", v/float64(MB))
	default:
		return fmt.Sprintf("%.2f kB/s", v/float64(KB))
	}
}

// TimeToTransfer reports how long moving b bytes takes at rate r. It returns
// +Inf seconds for a non-positive rate with a positive size, and zero for a
// zero size.
func (r BytesPerSecond) TimeToTransfer(b Bytes) Seconds {
	if b == 0 {
		return 0
	}
	if r <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(b) / float64(r))
}
