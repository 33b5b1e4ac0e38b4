package ocean

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// solverGoldenHash is the SHA-256 of the state, diagnostics and
// Okubo-Weiss field after 30 steps of the Galewsky jet on the 10 242-cell
// mesh (see TestSolverGoldenHash). A kernel rewrite that reorders any floating-point
// operation changes it; such a change is a declared bit change, never a
// silent one.
const solverGoldenHash = "36604f1fcb414d6e7373a2dc9f5f4b213320c2654355ec7e9969531ca3ce5945"

// TestSolverGoldenHash pins the solver's output bits. Go may fuse
// multiply-add on targets other than amd64, so the bits are promised per
// platform and the constant is checked on amd64 only.
func TestSolverGoldenHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("solver bits are pinned on amd64 only (running on %s)", runtime.GOARCH)
	}
	for _, workers := range []int{-1, 2} {
		md := testModel(t, 5, Config{Viscosity: 1e5, Workers: workers})
		s, err := UnstableJet(md, DefaultGalewsky())
		if err != nil {
			t.Fatal(err)
		}
		dt := md.SuggestedTimestep(10000)
		for i := 0; i < 30; i++ {
			if err := md.Step(s, dt); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CheckFinite(); err != nil {
			t.Fatal(err)
		}
		d := md.NewDiagnostics()
		if err := md.ComputeDiagnosticsInto(s, d); err != nil {
			t.Fatal(err)
		}
		ow := md.OkuboWeiss(s)

		h := sha256.New()
		var buf [8]byte
		put := func(xs ...float64) {
			for _, x := range xs {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
			}
		}
		put(s.Thickness...)
		put(s.NormalVelocity...)
		put(d.Divergence...)
		put(d.Vorticity...)
		put(d.KineticEnergy...)
		for _, v := range d.CellVelocity {
			put(v[:]...)
		}
		put(ow...)
		if got := hex.EncodeToString(h.Sum(nil)); got != solverGoldenHash {
			t.Errorf("workers=%d: solver hash %s, want %s", workers, got, solverGoldenHash)
		}
	}
}
