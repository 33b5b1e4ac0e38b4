package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSecondsConstructors(t *testing.T) {
	if Hours(2) != 7200 {
		t.Errorf("Hours(2) = %v, want 7200", float64(Hours(2)))
	}
	if Minutes(3) != 180 {
		t.Errorf("Minutes(3) = %v, want 180", float64(Minutes(3)))
	}
	if Days(1) != 86400 {
		t.Errorf("Days(1) = %v, want 86400", float64(Days(1)))
	}
	if Years(1) != 365*86400 {
		t.Errorf("Years(1) = %v, want %v", float64(Years(1)), 365*86400)
	}
}

func TestSecondsString(t *testing.T) {
	cases := []struct {
		in   Seconds
		want string
	}{
		{42, "42.00 s"},
		{90, "1.50 min"},
		{7200, "2.00 h"},
		{172800, "2.00 d"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Seconds(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestWatts(t *testing.T) {
	if got := Watts(44e3).Kilowatts(); got != 44 {
		t.Errorf("Watts(44e3).Kilowatts() = %v, want 44", got)
	}
	if got := Watts(2302).String(); got != "2.30 kW" {
		t.Errorf("Watts(2302).String() = %q", got)
	}
	if got := Watts(12.5).String(); got != "12.5 W" {
		t.Errorf("Watts(12.5).String() = %q", got)
	}
	if got := Watts(20e6).String(); got != "20.00 MW" {
		t.Errorf("Watts(20e6).String() = %q", got)
	}
}

func TestEnergy(t *testing.T) {
	e := Energy(46e3, Hours(1))
	if math.Abs(float64(e)-46*3.6e6) > 1e-3 {
		t.Errorf("46 kW for 1 h = %v, want 46 kWh", e)
	}
	if got := Joules(1.25e6).Megajoules(); got != 1.25 {
		t.Errorf("Megajoules = %v, want 1.25", got)
	}
}

func TestJoulesString(t *testing.T) {
	cases := []struct {
		in   Joules
		want string
	}{
		{5, "5.0 J"},
		{2500, "2.50 kJ"},
		{3.2e6, "3.20 MJ"},
		{7.5e9, "7.50 GJ"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Joules(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestBytes(t *testing.T) {
	if got := Gigabytes(230); got != 230*GB {
		t.Errorf("Gigabytes(230) = %v, want 230 GB", got)
	}
	if got := Terabytes(7.7); got != Bytes(7.7e12) {
		t.Errorf("Terabytes(7.7) = %v, want 7.7 TB", got)
	}
	if got := (230 * GB).String(); got != "230.00 GB" {
		t.Errorf("(230 GB).String() = %q", got)
	}
	if got := Bytes(512).String(); got != "512 B" {
		t.Errorf("Bytes(512).String() = %q", got)
	}
	if got := (2 * TB).String(); got != "2.00 TB" {
		t.Errorf("(2 TB).String() = %q", got)
	}
	if got := (15 * MB).String(); got != "15.00 MB" {
		t.Errorf("(15 MB).String() = %q", got)
	}
	if got := (3 * KB).String(); got != "3.00 kB" {
		t.Errorf("(3 kB).String() = %q", got)
	}
}

func TestTransferRate(t *testing.T) {
	r := MegabytesPerSecond(160)
	// 1 GB at 160 MB/s is 6.25 s — this is the physical origin of the
	// paper's alpha = 6.3 s/GB coefficient.
	got := r.TimeToTransfer(1 * GB)
	if math.Abs(float64(got)-6.25) > 1e-9 {
		t.Errorf("1 GB at 160 MB/s = %v s, want 6.25", float64(got))
	}
	if got := r.TimeToTransfer(0); got != 0 {
		t.Errorf("zero bytes should take zero time, got %v", got)
	}
	if got := BytesPerSecond(0).TimeToTransfer(1); !math.IsInf(float64(got), 1) {
		t.Errorf("transfer at zero rate should be +Inf, got %v", got)
	}
	if got := r.String(); got != "160.00 MB/s" {
		t.Errorf("rate String = %q", got)
	}
	if got := MegabytesPerSecond(2500).String(); got != "2.50 GB/s" {
		t.Errorf("rate String = %q", got)
	}
	if got := BytesPerSecond(5000).String(); got != "5.00 kB/s" {
		t.Errorf("rate String = %q", got)
	}
}

func TestEnergyBilinearProperty(t *testing.T) {
	// Energy(P, t) must be linear in both arguments.
	f := func(p, s float64) bool {
		p = math.Mod(p, 1e6)
		s = math.Mod(s, 1e6)
		e1 := Energy(Watts(2*p), Seconds(s))
		e2 := Energy(Watts(p), Seconds(2*s))
		return math.Abs(float64(e1)-float64(e2)) <= 1e-6*math.Max(1, math.Abs(float64(e1)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransferInverseProperty(t *testing.T) {
	// Transferring b bytes at rate r takes time t such that r*t == b.
	f := func(gb uint16, mbps uint16) bool {
		b := Bytes(gb) * GB
		r := MegabytesPerSecond(float64(mbps%4000) + 1)
		tt := r.TimeToTransfer(b)
		back := float64(r) * float64(tt)
		return math.Abs(back-float64(b)) < 1e-3*math.Max(1, float64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
