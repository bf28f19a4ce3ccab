// Command ziggen materializes the synthetic demo datasets (or a
// planted-ground-truth benchmark dataset) as CSV files, so they can be
// inspected, loaded into other tools, or fed back to ziggy -csv.
//
//	ziggen -dataset uscrime -seed 42 -out uscrime.csv
//	ziggen -dataset planted -rows 5000 -noise 20 -out planted.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/csvio"
	"repro/internal/frame"
	"repro/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ziggen:", err)
		os.Exit(1)
	}
}

func run() error {
	dataset := flag.String("dataset", "uscrime", "dataset: uscrime, boxoffice, innovation, planted")
	seed := flag.Uint64("seed", 42, "generator seed")
	out := flag.String("out", "", "output CSV path (required)")
	rows := flag.Int("rows", 2000, "rows for -dataset planted")
	noise := flag.Int("noise", 20, "noise columns for -dataset planted")
	frac := flag.Float64("selection", 0.25, "selection fraction for -dataset planted")
	flag.Parse()

	if *out == "" {
		return fmt.Errorf("-out is required")
	}

	var f *frame.Frame
	switch *dataset {
	case "planted":
		pd, err := synth.Planted(synth.PlantedConfig{
			Seed: *seed, Rows: *rows, SelectionFraction: *frac,
			Views: []synth.PlantedView{
				{Cols: 2, WithinCorr: 0.75, MeanShift: 1.5},
				{Cols: 2, WithinCorr: 0.75, ScaleRatio: 3},
				{Cols: 2, WithinCorr: 0.8, DecorrelateInside: true},
			},
			NoiseCols: *noise,
		})
		if err != nil {
			return err
		}
		f = pd.Frame
		fmt.Fprintf(os.Stderr, "planted views: %v\nselection: %d rows\n",
			pd.TrueViews, pd.Selection.Count())
	default:
		var err error
		if f, err = synth.ByName(*dataset, *seed); err != nil {
			return err
		}
	}

	if err := csvio.WriteFile(*out, f); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d rows × %d columns\n", *out, f.NumRows(), f.NumCols())
	return nil
}
