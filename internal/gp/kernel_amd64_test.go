package gp

import (
	"math"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"locat/internal/mat"
)

// The constants of $GOROOT/src/math/exp_amd64.s.
const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// expTaylor is exp_amd64.s's series after the leading term, highest order
// first, ending in ½ and 1.
var expTaylor = []float64{
	1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
	4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
}

// expReduce returns k = round(x·log2e) as math.Exp's CVTSD2SL rounds it.
func expReduce(x float64) float64 {
	return float64(int32(math.RoundToEven(expLog2e * x)))
}

// expFMA is archExp's avxfma sequence, in range (|x| ≤ 700): what
// math.Exp computes where the processor has AVX and FMA.
func expFMA(x float64) float64 {
	k := expReduce(x)
	r := math.FMA(-expLn2U, k, x)
	r = math.FMA(-expLn2L, k, r) * 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range expTaylor {
		p = math.FMA(p, r, c)
	}
	r *= p
	for range 3 {
		r *= r + 2
	}
	r = math.FMA(r+2, r, 1)
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// expSSE is archExp's SSE sequence, each operation rounded on its own: what
// math.Exp computes without FMA, or under GODEBUG=cpu.fma=off.
func expSSE(x float64) float64 {
	k := expReduce(x)
	r := x - float64(expLn2U*k)
	r = (r - float64(expLn2L*k)) * 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range expTaylor {
		p = float64(p*r) + c
	}
	r *= p
	for range 4 {
		r *= r + 2
	}
	r++
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// TestVecKernelGate: the start-up probe can tell math.Exp's two sequences
// apart, and the vector kernel is on exactly where the processor has AVX2 and
// FMA and math.Exp takes its FMA path.
func TestVecKernelGate(t *testing.T) {
	differ := false
	for _, v := range kernelProbe {
		differ = differ || math.Float64bits(expFMA(-v)) != math.Float64bits(expSSE(-v))
	}
	if !differ {
		t.Fatalf("no probe argument in %v tells math.Exp's FMA and SSE sequences apart", kernelProbe)
	}
	if !mat.HasAVX2FMA() {
		t.Skip("no AVX2 and FMA on this processor; the vector kernel stays off")
	}
	viaFMA, viaSSE := true, true
	for _, v := range kernelProbe {
		e := math.Float64bits(math.Exp(-v))
		viaFMA = viaFMA && e == math.Float64bits(expFMA(-v))
		viaSSE = viaSSE && e == math.Float64bits(expSSE(-v))
	}
	if viaFMA == viaSSE {
		t.Fatalf("math.Exp follows the FMA sequence: %v, the SSE sequence: %v; want exactly one", viaFMA, viaSSE)
	}
	if useVecKernel != viaFMA {
		t.Fatalf("useVecKernel = %v where math.Exp takes its FMA path: %v", useVecKernel, viaFMA)
	}
	if !viaFMA {
		t.Skipf("math.Exp takes its SSE path (GODEBUG=%q); the vector kernel stays off", os.Getenv("GODEBUG"))
	}
}

// builtForV3 is set in a GOAMD64=v3 build (kernel_v3_test.go).
var builtForV3 bool

// TestVecKernelGateUnderGODEBUG runs TestVecKernelGate again in a child with
// math.Exp's FMA path switched off, which leaves the CPUID bits set: the gate
// must see it through the probe. A GOAMD64=v3 build cannot switch FMA off
// (its runtime rejects GODEBUG=cpu.fma=off), so there the gate must be on by
// construction.
func TestVecKernelGateUnderGODEBUG(t *testing.T) {
	if builtForV3 {
		if !useVecKernel {
			t.Fatal("vector kernel off in a GOAMD64=v3 build, where math.Exp always takes its FMA path")
		}
		return
	}
	if !mat.HasAVX2FMA() {
		t.Skip("no AVX2 and FMA on this processor")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestVecKernelGate$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "math.Exp takes its SSE path") {
		t.Fatalf("child under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// TestDistancesGate: the distance pass runs on the lane kernel exactly where
// the processor has AVX2 (the lanes need no FMA, so GODEBUG=cpu.fma=off
// leaves them on).
func TestDistancesGate(t *testing.T) {
	lanes := reflect.ValueOf(distances).Pointer() == reflect.ValueOf(distancesLanes).Pointer()
	if lanes != mat.HasAVX2FMA() {
		t.Fatalf("distance lanes on: %v, HasAVX2FMA: %v", lanes, mat.HasAVX2FMA())
	}
}
