package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/synth"
)

// plantedWorkload builds the standard accuracy workload: five planted
// two-column views exercising every Zig-Component family, four correlated
// decoy blocks with no selection effect (they carry shared variance, so
// context-free methods latch onto them), plus noise columns.
func plantedWorkload(seed uint64, rows, noiseCols int) (*synth.PlantedData, error) {
	if noiseCols < 8 {
		noiseCols = 8
	}
	return synth.Planted(synth.PlantedConfig{
		Seed: seed, Rows: rows, SelectionFraction: 0.25,
		Views: []synth.PlantedView{
			{Cols: 2, WithinCorr: 0.75, MeanShift: 1.5},
			{Cols: 2, WithinCorr: 0.75, MeanShift: -1.2},
			{Cols: 2, WithinCorr: 0.75, ScaleRatio: 3},
			{Cols: 2, WithinCorr: 0.8, DecorrelateInside: true},
			{Cols: 2, WithinCorr: 0.75, MeanShift: 0.8, ScaleRatio: 2},
			// Decoys: tighter correlation than the true views, zero signal.
			{Cols: 2, WithinCorr: 0.9, Decoy: true},
			{Cols: 2, WithinCorr: 0.9, Decoy: true},
			{Cols: 2, WithinCorr: 0.85, Decoy: true},
			{Cols: 2, WithinCorr: 0.85, Decoy: true},
		},
		NoiseCols: noiseCols - 8,
	})
}

// ziggyViews runs the engine on planted data and returns its views as
// column groups.
func ziggyViews(pd *synth.PlantedData, cfg core.Config) ([][]string, error) {
	engine, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := engine.Characterize(pd.Frame, pd.Selection)
	if err != nil {
		return nil, err
	}
	out := make([][]string, 0, len(rep.Views))
	for _, v := range rep.Views {
		out = append(out, v.Columns)
	}
	return out, nil
}

// AccuracyVsBaselines runs experiment X3: recovery of planted views by
// Ziggy against the black-box and context-free baselines, averaged over
// trials.
func AccuracyVsBaselines(seed uint64, trials int) (*Table, error) {
	if trials < 1 {
		trials = 1
	}
	t := &Table{
		ID:     "x3",
		Title:  "Planted-view recovery: Ziggy vs baselines",
		Header: []string{"method", "precision", "recall", "soft-recall", "F1"},
	}
	type accum struct{ p, r, s, f float64 }
	sums := map[string]*accum{}
	order := []string{"ziggy", "kl-beam", "centroid", "pca", "random", "full-space"}
	for trial := 0; trial < trials; trial++ {
		pd, err := plantedWorkload(seed+uint64(trial)*101, 2000, 20)
		if err != nil {
			return nil, err
		}
		k := len(pd.TrueViews)
		cfg := engineConfig()
		cfg.MaxViews = k
		zv, err := ziggyViews(pd, cfg)
		if err != nil {
			return nil, err
		}
		results := map[string][][]string{"ziggy": zv}
		methods := []baseline.Method{
			baseline.KLBeam{},
			baseline.CentroidGreedy{},
			baseline.PCA{},
			baseline.Random{Seed: seed + uint64(trial)},
			baseline.FullSpace{},
		}
		for _, m := range methods {
			results[m.Name()] = m.FindViews(pd.Frame, pd.Selection, k, 2)
		}
		for name, views := range results {
			m := Score(views, pd.TrueViews)
			if sums[name] == nil {
				sums[name] = &accum{}
			}
			sums[name].p += m.Precision
			sums[name].r += m.Recall
			sums[name].s += m.SoftRecall
			sums[name].f += m.F1
		}
	}
	ft := float64(trials)
	for _, name := range order {
		a := sums[name]
		if a == nil {
			continue
		}
		t.AddRow(name,
			fmt.Sprintf("%.2f", a.p/ft), fmt.Sprintf("%.2f", a.r/ft),
			fmt.Sprintf("%.2f", a.s/ft), fmt.Sprintf("%.2f", a.f/ft))
	}
	t.AddNote("%d trials, 5 planted 2-column views (shift/scale/correlation mix), 4 correlated decoy blocks, 12 noise columns, N=2000", trials)
	t.AddNote("expected shape: ziggy recovers all views and rejects decoys; context-free pca chases decoys; full-space never matches")
	return t, nil
}

// ScalingColumns runs experiment X1: wall time versus column count at
// fixed N=2000.
func ScalingColumns(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "x1",
		Title:  "Runtime scaling with column count (N=2000)",
		Header: []string{"columns", "prep(ms)", "search(ms)", "post(ms)", "total(ms)"},
	}
	for _, m := range []int{24, 32, 64, 128, 256, 512} {
		// Planted views and decoys occupy 18 columns; the rest is noise.
		pd, err := plantedWorkload(seed, 2000, m-10)
		if err != nil {
			return nil, err
		}
		engine, err := core.New(engineConfig())
		if err != nil {
			return nil, err
		}
		rep, err := engine.Characterize(pd.Frame, pd.Selection)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(m), ms(rep.Timings.Preparation), ms(rep.Timings.Search),
			ms(rep.Timings.Post), ms(rep.Timings.Total()))
	}
	t.AddNote("preparation grows quadratically in M (pairwise dependencies); search stays subordinate")
	return t, nil
}

// ScalingRows runs experiment X2: wall time versus row count at fixed
// M=64.
func ScalingRows(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "x2",
		Title:  "Runtime scaling with row count (M=64)",
		Header: []string{"rows", "prep(ms)", "search(ms)", "post(ms)", "total(ms)"},
	}
	for _, n := range []int{1000, 2000, 5000, 10000, 50000, 100000} {
		pd, err := plantedWorkload(seed, n, 54)
		if err != nil {
			return nil, err
		}
		engine, err := core.New(engineConfig())
		if err != nil {
			return nil, err
		}
		rep, err := engine.Characterize(pd.Frame, pd.Selection)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n), ms(rep.Timings.Preparation), ms(rep.Timings.Search),
			ms(rep.Timings.Post), ms(rep.Timings.Total()))
	}
	t.AddNote("all stages scale linearly in N; preparation dominates throughout")
	return t, nil
}

// MinTightSweep runs experiment X4: the effect of the MIN_tight threshold
// on view count, size and score over the US Crime scenario.
func MinTightSweep(seed uint64) (*Table, error) {
	sc, err := NewCrimeScenario(seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "x4",
		Title:  "MIN_tight sweep on the US Crime scenario",
		Header: []string{"min_tight", "views", "avg size", "avg score", "avg tightness"},
	}
	for _, mt := range []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		cfg := engineConfig()
		cfg.MinTight = mt
		cfg.MaxViews = 100
		engine, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		rep, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, core.Options{ExcludeColumns: sc.Exclude})
		if err != nil {
			return nil, err
		}
		var sizeSum, scoreSum, tightSum float64
		for _, v := range rep.Views {
			sizeSum += float64(len(v.Columns))
			scoreSum += v.Score
			tightSum += v.Tightness
		}
		n := float64(len(rep.Views))
		if n == 0 {
			t.AddRow(fmt.Sprintf("%.1f", mt), "0", "-", "-", "-")
			continue
		}
		t.AddRow(fmt.Sprintf("%.1f", mt), fmt.Sprint(len(rep.Views)),
			fmt.Sprintf("%.2f", sizeSum/n), fmt.Sprintf("%.3f", scoreSum/n),
			fmt.Sprintf("%.3f", tightSum/n))
	}
	t.AddNote("higher thresholds fragment views toward singletons: average size tends to 1, tightness to 1, and per-view scores fall as fewer components combine")
	return t, nil
}

// SharedStatsCache runs experiment X5: per-query latency across an
// exploration session of related queries, with and without the shared
// dependency-statistics cache.
func SharedStatsCache(seed uint64) (*Table, error) {
	f := synth.USCrime(seed)
	sorted, err := f.SortedNumeric("crime_violent_rate")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "x5",
		Title:  "Computation sharing across a query session (paper §3 preparation)",
		Header: []string{"query", "threshold", "shared(ms)", "fresh(ms)", "speedup"},
	}
	shared, err := core.New(engineConfig())
	if err != nil {
		return nil, err
	}
	quantiles := []float64{0.95, 0.9, 0.85, 0.8, 0.75, 0.7}
	for qi, q := range quantiles {
		threshold := sorted[int(float64(len(sorted)-1)*q)]
		sel, err := thresholdMask(f, "crime_violent_rate", threshold)
		if err != nil {
			return nil, err
		}
		// Shared engine: cache warm after the first query.
		start := time.Now()
		if _, err := shared.Characterize(f, sel); err != nil {
			return nil, err
		}
		sharedTime := time.Since(start)

		// Fresh engine: every query pays full preparation.
		freshEngine, err := core.New(engineConfig())
		if err != nil {
			return nil, err
		}
		start = time.Now()
		if _, err := freshEngine.Characterize(f, sel); err != nil {
			return nil, err
		}
		freshTime := time.Since(start)

		speedup := "-"
		if sharedTime > 0 {
			speedup = fmt.Sprintf("%.1f×", float64(freshTime)/float64(sharedTime))
		}
		t.AddRow(fmt.Sprintf("q%d", qi+1), fmt.Sprintf("P%.0f", q*100),
			ms(sharedTime), ms(freshTime), speedup)
	}
	t.AddNote("query 1 pays the full preparation in both settings; later shared queries reuse the dependency matrix")
	return t, nil
}

// LinkageAblation runs experiment X6: candidate quality under complete,
// single and average linkage on the planted workload.
func LinkageAblation(seed uint64, trials int) (*Table, error) {
	if trials < 1 {
		trials = 1
	}
	t := &Table{
		ID:     "x6",
		Title:  "Linkage ablation for candidate generation",
		Header: []string{"linkage", "precision", "recall", "soft-recall", "F1"},
	}
	linkages := []cluster.Linkage{cluster.Complete, cluster.Single, cluster.Average}
	for _, linkage := range linkages {
		var p, r, s, f1 float64
		for trial := 0; trial < trials; trial++ {
			pd, err := plantedWorkload(seed+uint64(trial)*131, 2000, 20)
			if err != nil {
				return nil, err
			}
			cfg := engineConfig()
			cfg.Linkage = linkage
			cfg.MaxViews = len(pd.TrueViews)
			views, err := ziggyViews(pd, cfg)
			if err != nil {
				return nil, err
			}
			m := Score(views, pd.TrueViews)
			p += m.Precision
			r += m.Recall
			s += m.SoftRecall
			f1 += m.F1
		}
		ft := float64(trials)
		t.AddRow(linkage.String(),
			fmt.Sprintf("%.2f", p/ft), fmt.Sprintf("%.2f", r/ft),
			fmt.Sprintf("%.2f", s/ft), fmt.Sprintf("%.2f", f1/ft))
	}
	t.AddNote("the paper picks complete linkage: it alone guarantees every cluster member pair clears MIN_tight")
	return t, nil
}

// SamplingAblation runs experiment X7: characterization accuracy and warm
// per-query latency as Options.ApproxRows shrinks the rows the statistics
// consume (the BlinkDB-style approximation). Cap 0 is the exact run; every
// capped run must come back flagged with its Approximate provenance.
func SamplingAblation(seed uint64, trials int) (*Table, error) {
	if trials < 1 {
		trials = 1
	}
	t := &Table{
		ID:     "x7",
		Title:  "Sampling ablation: accuracy and latency vs sample cap (N=50000)",
		Header: []string{"sample rows", "recall", "soft-recall", "warm query(ms)"},
	}
	for _, cap := range []int{0, 20000, 10000, 5000, 2000, 500} {
		var recall, soft float64
		var elapsed time.Duration
		for trial := 0; trial < trials; trial++ {
			pd, err := plantedWorkload(seed+uint64(trial)*211, 50000, 20)
			if err != nil {
				return nil, err
			}
			cfg := engineConfig()
			cfg.MaxViews = len(pd.TrueViews)
			engine, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			// Warm the dependency cache, then time the query path with the
			// report memo bypassed so the sampling effect stays visible.
			if _, err := engine.Characterize(pd.Frame, pd.Selection); err != nil {
				return nil, err
			}
			start := time.Now()
			rep, err := engine.CharacterizeOpts(pd.Frame, pd.Selection,
				core.Options{SkipReportCache: true, ApproxRows: cap})
			if err != nil {
				return nil, err
			}
			elapsed += time.Since(start)
			if (rep.Approximate != nil) != (cap > 0) {
				return nil, fmt.Errorf("experiments: cap %d served with approximate provenance %+v", cap, rep.Approximate)
			}
			var views [][]string
			for _, v := range rep.Views {
				views = append(views, v.Columns)
			}
			m := Score(views, pd.TrueViews)
			recall += m.Recall
			soft += m.SoftRecall
		}
		ft := float64(trials)
		label := "exact"
		if cap > 0 {
			label = fmt.Sprint(cap)
		}
		t.AddRow(label, fmt.Sprintf("%.2f", recall/ft), fmt.Sprintf("%.2f", soft/ft),
			ms(elapsed/time.Duration(trials)))
	}
	t.AddNote("recall holds to a few thousand sampled rows while warm latency drops with the cap")
	return t, nil
}

// ByID resolves an experiment identifier to its runner.
func ByID(id string, seed uint64) (*Table, error) {
	switch id {
	case "f1":
		return Figure1(seed)
	case "f2":
		return Figure2(seed)
	case "f3":
		return Figure3(seed)
	case "f4":
		return Figure4(seed)
	case "f5":
		return Figure5(seed)
	case "uc1":
		return UseCaseBoxOffice(seed)
	case "uc2":
		return UseCaseUSCrime(seed)
	case "uc3":
		return UseCaseInnovation(seed)
	case "x1":
		return ScalingColumns(seed)
	case "x2":
		return ScalingRows(seed)
	case "x3":
		return AccuracyVsBaselines(seed, 3)
	case "x4":
		return MinTightSweep(seed)
	case "x5":
		return SharedStatsCache(seed)
	case "x6":
		return LinkageAblation(seed, 3)
	case "x7":
		return SamplingAblation(seed, 2)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}

// IDs lists the experiment identifiers in package-index order.
func IDs() []string {
	return []string{"f1", "f2", "f3", "f4", "f5", "uc1", "uc2", "uc3", "x1", "x2", "x3", "x4", "x5", "x6", "x7"}
}
