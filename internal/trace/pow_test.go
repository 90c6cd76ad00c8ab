package trace

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/zipf"
)

// calibrationBetas returns every exponent the size bisection evaluates for
// the pinned stationary specs, including the end points and the final beta
// the sizes are built from.
func calibrationBetas(t *testing.T) []float64 {
	var betas []float64
	for _, spec := range stationaryGoldenSpecs() {
		spec = spec.withDefaults()
		if spec.HeadFiles > spec.Files {
			t.Fatalf("%s: pinned spec needs HeadFiles clamping", spec.Name)
		}
		rng := rand.New(rand.NewSource(spec.Seed))
		cal := newSizeCalibration(spec, zipf.New(spec.Alpha, int64(spec.Files)), rng)
		beta := solveBeta(func(b float64) float64 {
			betas = append(betas, b)
			return cal.ratio(b)
		}, spec.AvgReqKB/spec.AvgFileKB)
		betas = append(betas, beta)
	}
	return betas
}

// TestFixedPowMatchesMathPow checks fixedPow against math.Pow bit for bit
// over every base in 1..2^20, for every exponent the pinned specs' size
// calibration visits and for exponents at math.pow's branch points. The
// pure-Go math.pow that fixedPow replays is what math.Pow runs everywhere
// except s390x, where math.Pow is assembly and fixedPow calls it directly.
func TestFixedPowMatchesMathPow(t *testing.T) {
	const n = 1 << 20
	half := 0.5
	betas := []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1, -1,
		// fractional parts just above and just below one half
		math.Nextafter(half, 1), math.Nextafter(half, 0),
		-math.Nextafter(half, 1), -math.Nextafter(half, 0),
		1.5, -1.5, 2.5, -2.5,
		math.Nextafter(2.5, 3), math.Nextafter(2.5, 2),
		math.Nextafter(-1.5, -2), math.Nextafter(-1.5, -1),
		// tiny |beta|
		1e-17, -1e-17, 1e-300, -1e-300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	for k := -3.0; k <= 5; k++ {
		betas = append(betas, k)
	}
	betas = append(betas, calibrationBetas(t)...)
	sort.Float64s(betas)

	var uniq []float64
	for j, beta := range betas {
		if j == 0 || math.Float64bits(beta) != math.Float64bits(betas[j-1]) {
			uniq = append(uniq, beta)
		}
	}

	// Each exponent costs about 0.1 s; spread them over the CPUs. Under
	// -short only every 61st base is checked.
	step := 1
	if testing.Short() {
		step = 61
	}
	tab := newPowTable(n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(uniq); j += workers {
				beta := uniq[j]
				p := tab.fixed(beta)
				for x := 1; x <= n; x += step {
					got, want := p.at(x), math.Pow(float64(x), beta)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("fixedPow(%v).at(%d) = %v (%#x), math.Pow = %v (%#x)",
							beta, x, got, math.Float64bits(got), want, math.Float64bits(want))
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	t.Logf("%d exponents x %d bases", len(uniq), n/step)
}
