package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/frame"
	"repro/internal/synth"
)

// warmQueryAllocs are the exact allocations of one fresh characterization
// of uscrime(1)'s crime_violent_rate ≥ q0.9 selection on a warm engine
// (the table prepared, the report memo bypassed), per mode. A change that
// allocates more or less per query moves them, and must say so here.
var warmQueryAllocs = map[string]float64{
	"default": 1401,
	"robust":  1402,
}

// TestWarmQueryAllocs counts a warm query's allocations exactly. The
// counts are exact only with one P and the collector off: a collection
// empties sync.Pools (fmt's printers among them), and the refills it
// causes follow GC timing, not the code.
func TestWarmQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f := synth.USCrime(1)
	threshold, err := synth.QuantileOf(f, "crime_violent_rate", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	c := f.Col(f.ColIndex("crime_violent_rate"))
	sel := frame.NewBitmap(f.NumRows())
	for r := 0; r < f.NumRows(); r++ {
		if !c.IsNull(r) && c.Float(r) >= threshold {
			sel.Set(r)
		}
	}
	opts := Options{ExcludeColumns: []string{"crime_violent_rate"}, SkipReportCache: true}
	for _, mode := range []struct {
		name   string
		robust bool
	}{{"default", false}, {"robust", true}} {
		cfg := DefaultConfig()
		cfg.Robust = mode.robust
		cfg.Parallelism = 1
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		characterize := func() {
			if _, err := e.CharacterizeOpts(f, sel, opts); err != nil {
				t.Fatal(err)
			}
		}
		characterize() // prepare the table
		if got, want := testing.AllocsPerRun(20, characterize), warmQueryAllocs[mode.name]; got != want {
			t.Errorf("%s: a warm query allocates %v times, want %v", mode.name, got, want)
		}
	}
}
