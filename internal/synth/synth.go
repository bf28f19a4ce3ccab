// Package synth generates the synthetic stand-ins for the paper's three
// demonstration datasets, plus planted-ground-truth data for the accuracy
// experiments.
//
// The real datasets (Hollywood Box Office, UCI Communities & Crime, OECD
// Countries & Innovation) are not redistributable or reachable from this
// offline environment, so each generator reproduces the *statistical
// shape* that Ziggy exploits: thematically correlated column blocks driven
// by latent factors, with an outcome variable (crime rate, gross revenue,
// patactivity) wired to specific blocks so that selections on the outcome
// exhibit exactly the kinds of characteristic views the paper reports
// (the internal/experiments package doc lists the claims each dataset
// backs).
//
// All generators are deterministic functions of their seed.
package synth

import (
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/stats"
)

// factor is a latent variable realized for every row.
type factor []float64

// newFactor draws an independent standard normal factor of length n.
func newFactor(r *randx.Source, n int) factor {
	f := make(factor, n)
	for i := range f {
		f[i] = r.NormFloat64()
	}
	return f
}

// mix builds a new factor as a linear combination of parents plus fresh
// noise: sum(w_i * parents_i) + noiseW * N(0,1), then standardized to unit
// variance empirically.
func mix(r *randx.Source, n int, noiseW float64, parents []factor, weights []float64) factor {
	if len(parents) != len(weights) {
		panic("synth: mix parents/weights mismatch")
	}
	f := make(factor, n)
	for i := 0; i < n; i++ {
		v := noiseW * r.NormFloat64()
		for p, parent := range parents {
			v += weights[p] * parent[i]
		}
		f[i] = v
	}
	// Standardize so downstream loadings mean what they say.
	m := stats.Mean(f)
	s := stats.StdDev(f)
	if s > 0 {
		for i := range f {
			f[i] = (f[i] - m) / s
		}
	}
	return f
}

// column materializes an observed column from a factor: loading*factor +
// noise, affinely mapped to the requested location/scale.
func column(r *randx.Source, f factor, loading, noiseStd, offset, scale float64) []float64 {
	out := make([]float64, len(f))
	for i := range f {
		out[i] = offset + scale*(loading*f[i]+noiseStd*r.NormFloat64())
	}
	return out
}

// expColumn is column passed through exp, for heavy-tailed quantities like
// population counts and budgets.
func expColumn(r *randx.Source, f factor, loading, noiseStd, logMean, logStd float64) []float64 {
	out := make([]float64, len(f))
	for i := range f {
		z := loading*f[i] + noiseStd*r.NormFloat64()
		out[i] = expClamped(logMean + logStd*z)
	}
	return out
}

func expClamped(x float64) float64 {
	if x > 50 {
		x = 50
	}
	return math.Exp(x)
}

// QuantileOf returns the q-th quantile of the named numeric column of f;
// the generators and examples use it to build threshold queries like
// "crime above the 90th percentile".
func QuantileOf(f *frame.Frame, col string, q float64) (float64, error) {
	sorted, err := f.SortedNumeric(col)
	if err != nil {
		return 0, err
	}
	if len(sorted) == 0 {
		return 0, fmt.Errorf("synth: column %q has no non-NULL values", col)
	}
	return stats.Quantile(sorted, q), nil
}

// ByName generates the built-in demonstration dataset called name
// ("uscrime", "boxoffice" or "innovation") from seed.
func ByName(name string, seed uint64) (*frame.Frame, error) {
	switch name {
	case "uscrime":
		return USCrime(seed), nil
	case "boxoffice":
		return BoxOffice(seed), nil
	case "innovation":
		return Innovation(seed), nil
	}
	return nil, fmt.Errorf("unknown dataset %q (want uscrime, boxoffice or innovation)", name)
}
