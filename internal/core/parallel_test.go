package core

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/synth"
)

// bits renders a float64 exactly, so fingerprint comparisons are
// bit-for-bit rather than print-precision approximate.
func fbits(x float64) string { return strconv.FormatUint(math.Float64bits(x), 16) }

// fingerprint serializes everything observable about a report except the
// wall-clock timings and the cache-hit flag.
func fingerprint(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sel=%d total=%d warnings=%q\n", rep.SelectedRows, rep.TotalRows, rep.Warnings)
	if a := rep.Approximate; a != nil {
		fmt.Fprintf(&b, "approx sample=%d cap=%d seed=%d in=%d out=%d se=%s\n",
			a.SampleRows, a.CapRows, a.Seed, a.InsideRows, a.OutsideRows, fbits(a.SEInflation))
	}
	for _, v := range rep.Views {
		fmt.Fprintf(&b, "view %v score=%s tight=%s p=%s sig=%t expl=%q\n",
			v.Columns, fbits(v.Score), fbits(v.Tightness), fbits(v.PValue), v.Significant, v.Explanation)
		for _, c := range v.Components {
			fmt.Fprintf(&b, "  comp %v %v raw=%s norm=%s in=%s out=%s stat=%s df=%s p=%s detail=%q\n",
				c.Kind, c.Columns, fbits(c.Raw), fbits(c.Norm), fbits(c.Inside), fbits(c.Outside),
				fbits(c.Test.Stat), fbits(c.Test.DF), fbits(c.Test.P), c.Detail)
		}
	}
	return b.String()
}

// crimeFixture builds the paper's running example: the US-crime table with
// the high-violent-crime selection.
func crimeFixture(t *testing.T) (*frame.Frame, *frame.Bitmap, Options) {
	t.Helper()
	f := synth.USCrime(42)
	const col = "crime_violent_rate"
	threshold, err := synth.QuantileOf(f, col, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := f.Lookup(col)
	if !ok {
		t.Fatalf("missing column %q", col)
	}
	sel := frame.NewBitmap(f.NumRows())
	for i := 0; i < f.NumRows(); i++ {
		if !c.IsNull(i) && c.Float(i) >= threshold {
			sel.Set(i)
		}
	}
	return f, sel, Options{ExcludeColumns: []string{col}}
}

// TestParallelDeterminism asserts the engine's full observable output —
// view order, scores, p-values, components, explanations, warnings — is
// byte-identical for Parallelism 1 (the sequential path), 2, 3, and
// NumCPU, on both the synthetic planted workload and the US-crime fixture,
// cold and warm.
func TestParallelDeterminism(t *testing.T) {
	type fixture struct {
		name string
		cfg  func() Config
		data func(t *testing.T) (*frame.Frame, *frame.Bitmap, Options)
	}
	planted := func(seed uint64, opts Options) func(t *testing.T) (*frame.Frame, *frame.Bitmap, Options) {
		return func(t *testing.T) (*frame.Frame, *frame.Bitmap, Options) {
			pd := plantedFixture(t, seed)
			return pd.Frame, pd.Selection, opts
		}
	}
	fixtures := []fixture{
		{name: "planted-default", cfg: DefaultConfig, data: planted(90, Options{})},
		{name: "planted-robust-extended", cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Robust = true
			cfg.Extended = true
			return cfg
		}, data: planted(91, Options{})},
		{name: "planted-sampled", cfg: DefaultConfig, data: planted(92, Options{ApproxRows: 500})},
		{name: "uscrime", cfg: DefaultConfig, data: crimeFixture},
	}

	workerCounts := []int{1, 2, 3, runtime.NumCPU()}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			f, sel, opts := fx.data(t)
			var wantCold, wantWarm string
			for _, p := range workerCounts {
				cfg := fx.cfg()
				cfg.Parallelism = p
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := e.CharacterizeOpts(f, sel, opts)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := e.CharacterizeOpts(f, sel, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !warm.CacheHit {
					t.Fatalf("parallelism=%d: second run missed the cache", p)
				}
				fpCold, fpWarm := fingerprint(cold), fingerprint(warm)
				if p == 1 {
					wantCold, wantWarm = fpCold, fpWarm
					if len(cold.Views) == 0 {
						t.Fatal("reference run found no views")
					}
					continue
				}
				if fpCold != wantCold {
					t.Errorf("parallelism=%d: cold output differs from sequential\nwant:\n%s\ngot:\n%s", p, wantCold, fpCold)
				}
				if fpWarm != wantWarm {
					t.Errorf("parallelism=%d: warm output differs from sequential\nwant:\n%s\ngot:\n%s", p, wantWarm, fpWarm)
				}
			}
		})
	}
}

// TestParallelismValidation pins the knob's validation contract: negatives
// are rejected, 0 (all CPUs) and explicit counts are accepted.
func TestParallelismValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("Parallelism=-1 validated")
	}
	for _, p := range []int{0, 1, 64} {
		cfg.Parallelism = p
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Parallelism=%d rejected: %v", p, err)
		}
	}
}

// TestShardsValidation pins what is left of the deprecated shard count:
// 0 and 1 validate, and any other value is rejected with an error naming
// shard.NewWithBackends, the way to run several local engines.
func TestShardsValidation(t *testing.T) {
	for _, n := range []int{-1, 2, 4} {
		cfg := DefaultConfig()
		cfg.Shards = n
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "NewWithBackends") {
			t.Errorf("Shards=%d: err = %v, want a rejection naming NewWithBackends", n, err)
		}
	}
	for _, n := range []int{0, 1} {
		cfg := DefaultConfig()
		cfg.Shards = n
		if err := cfg.Validate(); err != nil {
			t.Errorf("Shards=%d rejected: %v", n, err)
		}
	}
}
