package stats

import (
	"math"
)

// This file implements the incomplete beta and gamma functions needed by the
// Student t, F and chi-squared CDFs. The algorithms follow the classic
// Numerical-Recipes formulations: a continued fraction (Lentz's method) for
// the beta function and a series/continued-fraction pair for the gamma
// function, both driven by math.Lgamma from the standard library.

const (
	specialEps     = 3e-14
	specialMaxIter = 300
	specialFPMin   = 1e-300
)

// RegIncBeta returns the regularized incomplete beta function I_x(a, b) for
// a, b > 0 and x in [0, 1]. It returns NaN for invalid arguments.
func RegIncBeta(a, b, x float64) float64 {
	if a <= 0 || b <= 0 || x < 0 || x > 1 || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x == 1 {
		return 1
	}
	lgA, _ := math.Lgamma(a)
	lgB, _ := math.Lgamma(b)
	lgAB, _ := math.Lgamma(a + b)
	front := math.Exp(lgAB - lgA - lgB + a*math.Log(x) + b*math.Log(1-x))
	// Use the continued fraction directly when it converges fast, or the
	// symmetry relation I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// via the modified Lentz algorithm.
func betaCF(a, b, x float64) float64 {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < specialFPMin {
		d = specialFPMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= specialMaxIter; m++ {
		m2 := 2 * float64(m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < specialFPMin {
			d = specialFPMin
		}
		c = 1 + aa/c
		if math.Abs(c) < specialFPMin {
			c = specialFPMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < specialFPMin {
			d = specialFPMin
		}
		c = 1 + aa/c
		if math.Abs(c) < specialFPMin {
			c = specialFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < specialEps {
			break
		}
	}
	return h
}

// RegIncGammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x) for a > 0, x >= 0. It returns NaN for invalid
// arguments.
func RegIncGammaQ(a, x float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaSeries(a, x)
	}
	return gammaCF(a, x)
}

// gammaSeries evaluates P(a, x) by its series representation (x < a+1).
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for n := 0; n < specialMaxIter; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*specialEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaCF evaluates Q(a, x) by continued fraction (x >= a+1).
func gammaCF(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / specialFPMin
	d := 1 / b
	h := d
	for i := 1; i <= specialMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < specialFPMin {
			d = specialFPMin
		}
		c = b + an/c
		if math.Abs(c) < specialFPMin {
			c = specialFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < specialEps {
			break
		}
	}
	return h * math.Exp(-x+a*math.Log(x)-lg)
}
