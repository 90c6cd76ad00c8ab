package trace

import (
	"math"
	"runtime"
)

// archPow reports whether math.Pow is implemented in assembly on this
// architecture (s390x only). fixedPow's exactness argument rests on
// replaying the pure-Go math.pow, so there it defers to math.Pow.
const archPow = runtime.GOARCH == "s390x"

// powTable holds the exponent-independent part of x**y for the integer
// bases 1..n: log x. Size calibration raises every rank to many trial
// exponents; math.Pow would recompute log x on every pass.
type powTable struct {
	logs []float64 // logs[x] = math.Log(x); logs[0] is unused
}

func newPowTable(n int) powTable {
	logs := make([]float64, n+1)
	for x := 1; x <= n; x++ {
		logs[x] = math.Log(float64(x))
	}
	return powTable{logs: logs}
}

// fixedPow evaluates x**y for one exponent y over the table's bases,
// bit-identical to math.Pow(float64(x), y). It replays Go's pure-Go
// math.pow step for step: the Modf split of |y| (done once, in fixed), the
// fractional factor Exp(yf*Log(x)) with Log(x) read from the table, the
// repeated squaring over Frexp(x) for the integer part, and the final
// Ldexp. Every floating-point operation on the result path is the one
// math.pow performs, in the same order, so the results cannot differ.
type fixedPow struct {
	logs   []float64
	y      float64
	yi     int64   // integer part of |y|, after rounding yf into (-0.5, 0.5]
	yf     float64 // fractional part of |y|, in (-0.5, 0.5]
	direct bool    // y is a math.pow special case: call math.Pow itself
}

func (t powTable) fixed(y float64) fixedPow {
	p := fixedPow{logs: t.logs, y: y}
	yi, yf := math.Modf(math.Abs(y))
	switch {
	case archPow, y == 0, y == 1, y == 0.5, y == -0.5,
		math.IsNaN(y), math.IsInf(y, 0), yi >= 1<<63:
		p.direct = true
		return p
	}
	if yf > 0.5 {
		yf--
		yi++
	}
	p.yi, p.yf = int64(yi), yf
	return p
}

// at returns x**y for a base 1 <= x <= n of the table. Bases below 2 take
// math.pow's special cases and go to math.Pow.
func (p fixedPow) at(x int) float64 {
	if p.direct || x < 2 {
		return math.Pow(float64(x), p.y)
	}
	// ans = a1 * 2**ae (= 1 for now).
	a1 := 1.0
	ae := 0

	// ans *= x**yf
	if p.yf != 0 {
		a1 = math.Exp(p.yf * p.logs[x])
	}

	// ans *= x**yi by successive squarings of x, powers of two in ae.
	x1, xe := math.Frexp(float64(x))
	for i := p.yi; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}

	// ans = a1*2**ae; for y < 0, ans = 1/ans, in that order.
	if p.y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}
