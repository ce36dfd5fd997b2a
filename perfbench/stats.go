package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// poissonCDFs returns P(K <= k) for K ~ Poisson(lambda) at k = 0, 1, ...
// up to where the upper tail vanishes; terms are built in log space so a
// mean of a few thousand does not underflow e^-lambda.
func poissonCDFs(lambda float64) []float64 {
	kmax := int(lambda + 20*math.Sqrt(lambda+1) + 50)
	out := make([]float64, 0, kmax+1)
	var cdf float64
	logTerm := -lambda // log P(K = 0)
	for k := 0; k <= kmax; k++ {
		if k > 0 {
			logTerm += math.Log(lambda) - math.Log(float64(k))
		}
		cdf = math.Min(cdf+math.Exp(logTerm), 1)
		out = append(out, cdf)
	}
	return out
}
