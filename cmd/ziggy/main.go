// Command ziggy characterizes a query result from the terminal: it loads a
// table (a CSV file or one of the built-in synthetic datasets), executes a
// SQL selection, and prints the characteristic views with their
// explanations.
//
// Examples:
//
//	ziggy -dataset uscrime -query "SELECT * FROM uscrime WHERE crime_violent_rate >= 1300"
//	ziggy -csv data.csv -query "SELECT * FROM data WHERE price > 100" -max-views 5
//	ziggy -dataset boxoffice -query "..." -exclude gross_musd -json
//
// -json prints the report as the JSON document ziggyd's /api/characterize
// answers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	ziggy "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/depend"
	"repro/internal/hypo"
	"repro/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ziggy:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ziggy", flag.ContinueOnError)
	var (
		csvPath    = fs.String("csv", "", "CSV file to load as the table")
		dataset    = fs.String("dataset", "", "built-in dataset: uscrime, boxoffice, innovation")
		seed       = fs.Uint64("seed", 42, "seed for built-in datasets")
		query      = fs.String("query", "", "SQL selection to characterize (required)")
		minTight   = fs.Float64("min-tight", 0.4, "tightness threshold MIN_tight in [0,1]")
		maxDim     = fs.Int("max-dim", 2, "maximum columns per view (D)")
		maxViews   = fs.Int("max-views", 8, "maximum number of views")
		exclude    = fs.String("exclude", "", "comma-separated columns to keep out of views")
		autoExcl   = fs.Bool("exclude-predicate", true, "exclude the query's WHERE columns from views")
		robust     = fs.Bool("robust", false, "use rank-based location statistics")
		linkage    = fs.String("linkage", "complete", "clustering linkage: complete, single, average")
		measure    = fs.String("measure", "pearson", "dependency measure: pearson, spearman, mi")
		generator  = fs.String("generator", "clustering", "candidate generator: clustering, cliques")
		agg        = fs.String("agg", "min", "p-value aggregation: min, bonferroni, holm, fisher, stouffer")
		alpha      = fs.Float64("alpha", 0.05, "significance level")
		sigOnly    = fs.Bool("significant-only", false, "report only statistically significant views")
		parallel   = fs.Int("parallelism", 0, "engine worker count (0 = all CPUs, 1 = sequential)")
		jsonOutput = fs.Bool("json", false, "emit the report as JSON")
		plotViews  = fs.Bool("plot", false, "render an ASCII chart under each view")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *query == "" {
		return fmt.Errorf("-query is required")
	}

	cfg := ziggy.DefaultConfig()
	cfg.MinTight = *minTight
	cfg.MaxDim = *maxDim
	cfg.MaxViews = *maxViews
	cfg.Robust = *robust
	cfg.Alpha = *alpha
	cfg.RequireSignificant = *sigOnly
	cfg.Parallelism = *parallel
	var err error
	if cfg.Linkage, err = cluster.ParseLinkage(*linkage); err != nil {
		return err
	}
	switch *measure {
	case "pearson", "":
		cfg.Measure = depend.AbsPearson
	case "spearman":
		cfg.Measure = depend.AbsSpearman
	case "mi":
		cfg.Measure = depend.NormalizedMI
	default:
		return fmt.Errorf("unknown measure %q", *measure)
	}
	switch *generator {
	case "clustering", "":
		cfg.Generator = ziggy.Clustering
	case "cliques":
		cfg.Generator = ziggy.Cliques
	default:
		return fmt.Errorf("unknown generator %q", *generator)
	}
	if cfg.Aggregation, err = hypo.ParseAggregation(*agg); err != nil {
		return err
	}

	session, err := ziggy.New(cfg)
	if err != nil {
		return err
	}
	switch {
	case *csvPath != "" && *dataset != "":
		return fmt.Errorf("-csv and -dataset are mutually exclusive")
	case *csvPath != "":
		if _, err := session.RegisterCSV(*csvPath); err != nil {
			return err
		}
	case *dataset != "":
		f, err := synth.ByName(*dataset, *seed)
		if err != nil {
			return err
		}
		if err := session.Register(f); err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -csv or -dataset is required")
	}

	opts := ziggy.Options{}
	if *exclude != "" {
		for _, c := range strings.Split(*exclude, ",") {
			if c = strings.TrimSpace(c); c != "" {
				opts.ExcludeColumns = append(opts.ExcludeColumns, c)
			}
		}
	}
	if *autoExcl {
		pred, err := ziggy.PredicateColumns(*query)
		if err != nil {
			return err
		}
		opts.ExcludeColumns = append(opts.ExcludeColumns, pred...)
	}

	rep, err := session.CharacterizeOpts(*query, opts)
	if err != nil {
		return err
	}

	if *jsonOutput {
		return core.WriteReportJSON(out, *query, rep.Report, nil)
	}
	printReport(out, rep)
	if *plotViews {
		for _, v := range rep.Views {
			chart, err := ziggy.PlotView(rep.Base, rep.Mask, v.Columns, 60, 16)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s\n", chart)
		}
	}
	return nil
}

func printReport(out io.Writer, rep *ziggy.QueryReport) {
	fmt.Fprintf(out, "query: %s\n", rep.SQL)
	fmt.Fprintf(out, "selection: %d of %d rows\n", rep.SelectedRows, rep.TotalRows)
	fmt.Fprintf(out, "timings: preparation %v, view search %v, post-processing %v\n\n",
		rep.Timings.Preparation.Round(100_000), rep.Timings.Search.Round(100_000),
		rep.Timings.Post.Round(100_000))
	if len(rep.Views) == 0 {
		fmt.Fprintln(out, "no characteristic views found; try lowering -min-tight")
	}
	for i, v := range rep.Views {
		marker := " "
		if v.Significant {
			marker = "*"
		}
		fmt.Fprintf(out, "%2d.%s %s\n", i+1, marker, strings.Join(v.Columns, " × "))
		fmt.Fprintf(out, "     score %.3f · tightness %.2f · p %.3g\n", v.Score, v.Tightness, v.PValue)
		fmt.Fprintf(out, "     %s\n\n", v.Explanation)
	}
	for _, w := range rep.Warnings {
		fmt.Fprintf(out, "warning: %s\n", w)
	}
}
