// Command benchdiff turns `go test -bench` output into a stable JSON form
// and gates benchmark regressions against a checked-in baseline. The CI
// bench job runs the key benchmarks with a fixed -benchtime and -count 3,
// parses the output into BENCH_ci.json, and fails if any benchmark got more
// than `threshold` times slower than BENCH_baseline.json:
//
//	go test -run '^$' -bench . -benchtime 100ms -count 3 -benchmem . | tee bench.txt
//	benchdiff parse -in bench.txt -out BENCH_ci.json
//	benchdiff compare -baseline BENCH_baseline.json -current BENCH_ci.json -threshold 2.0 \
//	    -zero-allocs '^(BenchmarkRankingKernels/|BenchmarkRobustColumn/split/)'
//
// Alongside the timing gate, compare enforces allocation budgets: a
// benchmark whose allocs/op exceeds its baseline fails, with no threshold
// slack. A kernel's count is deterministic, so any increase is a real
// regression. A whole pipeline's count moves by a few between identical
// runs (sync.Pool refills and the runtime's own allocations follow GC
// timing), so its baseline holds the highest minimum seen over several
// runs, or no allocs/op when the spread is wider. Benchmarks matching
// -zero-allocs must report exactly 0 allocs/op — the gate that keeps the
// ranking kernel and a column's per-query split allocation-free on the hot
// path.
//
// The update subcommand folds a benchmark run back into the checked-in
// baseline — the workflow for refreshing BENCH_baseline.json from a
// downloaded CI bench.txt artifact (the 4-vCPU runner numbers) without
// retyping anything:
//
//	benchdiff update -in bench.txt -baseline BENCH_baseline.json
//
// Benchmarks present in the input replace their baseline entries (or are
// added); baseline entries the input does not mention are kept unchanged,
// so a partial run (the CI bench job only runs the four gated benchmarks)
// never silently drops the rest of the baseline. Each change is reported.
//
// benchdiff gates micro-benchmarks only. End-to-end serving is measured
// by the separate benchmark/ module, which BENCHMARK.json declares.
//
// Parsing keeps the minimum ns/op across repeated runs of one benchmark
// (the least-noisy estimate of its true cost) and strips the -N GOMAXPROCS
// suffix from names, so files recorded on machines with different core
// counts stay comparable. The suffix is indistinguishable from a benchmark
// name that itself ends in "-<digits>" (on a GOMAXPROCS=1 machine no suffix
// is printed at all), so parsing fails loudly when two distinct printed
// names fold into one after stripping — name sub-benchmarks "key=value",
// not "key-123". Comparison fails on regressions past the threshold and on
// benchmarks that disappeared from the current run; benchmarks without a
// baseline entry are reported but pass (record them into the baseline on
// the next refresh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	// Name is the benchmark name with the -N GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// NsPerOp is the minimum ns/op observed across repeated runs.
	NsPerOp float64 `json:"nsPerOp"`
	// Samples is the number of runs folded into NsPerOp.
	Samples int `json:"samples"`
	// AllocsPerOp is the minimum allocs/op observed across repeated runs,
	// present only when the run was recorded with -benchmem. A pointer so
	// "0 allocs/op" (a gated property) stays distinguishable from "not
	// measured" in the JSON, and old baselines without the field still load.
	AllocsPerOp *float64 `json:"allocsPerOp,omitempty"`
}

// File is the JSON document benchdiff reads and writes.
type File struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches one result line of `go test -bench` output: name (with
// optional -N procs suffix), iteration count, ns/op value. Trailing metrics
// (B/op, rankops/op, …) are ignored.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+([0-9.]+) ns/op`)

// allocsMetric matches the allocs/op column -benchmem appends (always an
// integer) anywhere after the ns/op column.
var allocsMetric = regexp.MustCompile(`\s([0-9]+) allocs/op`)

// parseBench folds raw `go test -bench` output into per-name minima. It
// errors when two distinct printed names collapse onto one stripped name —
// the signature of a benchmark name ending in "-<digits>" being mistaken
// for a GOMAXPROCS suffix, which would silently merge different benchmarks.
func parseBench(raw string) (File, error) {
	best := make(map[string]*Benchmark)
	printed := make(map[string]string) // stripped name → raw printed name
	for _, line := range strings.Split(raw, "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			continue
		}
		rawName := m[1] + m[2]
		if prev, ok := printed[m[1]]; ok && prev != rawName {
			return File{}, fmt.Errorf("benchmarks %q and %q both parse to %q after GOMAXPROCS-suffix stripping; rename sub-benchmarks to avoid a trailing -<digits>", prev, rawName, m[1])
		}
		printed[m[1]] = rawName
		var allocs *float64
		if am := allocsMetric.FindStringSubmatch(line); am != nil {
			if a, err := strconv.ParseFloat(am[1], 64); err == nil {
				allocs = &a
			}
		}
		b, ok := best[m[1]]
		if !ok {
			best[m[1]] = &Benchmark{Name: m[1], NsPerOp: ns, Samples: 1, AllocsPerOp: allocs}
			continue
		}
		b.Samples++
		if ns < b.NsPerOp {
			b.NsPerOp = ns
		}
		if allocs != nil && (b.AllocsPerOp == nil || *allocs < *b.AllocsPerOp) {
			b.AllocsPerOp = allocs
		}
	}
	var f File
	for _, b := range best {
		f.Benchmarks = append(f.Benchmarks, *b)
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool { return f.Benchmarks[i].Name < f.Benchmarks[j].Name })
	return f, nil
}

// delta is one comparison row.
type delta struct {
	name       string
	base, cur  float64
	ratio      float64
	regression bool
}

// compare evaluates current against baseline under the threshold. It
// returns the report rows and the names of failures: regressions past the
// threshold, baseline benchmarks missing from the current run, allocs/op
// counts above their baseline, and — when zeroAllocs is non-nil — current
// benchmarks matching it that allocate (or were not measured with
// -benchmem, which would silently disarm the gate). Timing improvements
// and alloc reductions always pass.
func compare(baseline, current File, threshold float64, zeroAllocs *regexp.Regexp) (rows []delta, failures []string, extras []string) {
	cur := make(map[string]Benchmark, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	for _, base := range baseline.Benchmarks {
		c, ok := cur[base.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from the current run", base.Name))
			continue
		}
		delete(cur, base.Name)
		r := delta{name: base.Name, base: base.NsPerOp, cur: c.NsPerOp}
		if base.NsPerOp > 0 {
			r.ratio = c.NsPerOp / base.NsPerOp
			r.regression = r.ratio > threshold
		}
		if r.regression {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (%.2fx > %.2fx threshold)",
				r.name, r.cur, r.base, r.ratio, threshold))
		}
		if base.AllocsPerOp != nil {
			switch {
			case c.AllocsPerOp == nil:
				failures = append(failures, fmt.Sprintf("%s: baseline records %.0f allocs/op but the current run has no allocs/op metric (run with -benchmem)",
					base.Name, *base.AllocsPerOp))
			case *c.AllocsPerOp > *base.AllocsPerOp:
				failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f allocs/op",
					base.Name, *c.AllocsPerOp, *base.AllocsPerOp))
			}
		}
		rows = append(rows, r)
	}
	for name := range cur {
		extras = append(extras, name)
	}
	sort.Strings(extras)
	if zeroAllocs != nil {
		matched := 0
		for _, c := range current.Benchmarks {
			if !zeroAllocs.MatchString(c.Name) {
				continue
			}
			matched++
			switch {
			case c.AllocsPerOp == nil:
				failures = append(failures, fmt.Sprintf("%s: matches -zero-allocs but has no allocs/op metric (run with -benchmem)", c.Name))
			case *c.AllocsPerOp != 0:
				failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op, want 0 (-zero-allocs)", c.Name, *c.AllocsPerOp))
			}
		}
		if matched == 0 {
			failures = append(failures, fmt.Sprintf("-zero-allocs %q matched no benchmark in the current run (renamed benchmark would silently disarm the gate)", zeroAllocs))
		}
	}
	return rows, failures, extras
}

// fmtAllocs renders an optional allocs/op value for change logs.
func fmtAllocs(a *float64) string {
	if a == nil {
		return "unmeasured"
	}
	return fmt.Sprintf("%.0f", *a)
}

func readFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}

func runParse(args []string) {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	in := fs.String("in", "", "raw `go test -bench` output (default stdin)")
	out := fs.String("out", "", "JSON output path (default stdout)")
	fs.Parse(args)
	var raw []byte
	var err error
	if *in == "" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(*in)
	}
	if err != nil {
		fatalf("%v", err)
	}
	f, err := parseBench(string(raw))
	if err != nil {
		fatalf("%v", err)
	}
	if len(f.Benchmarks) == 0 {
		fatalf("no benchmark lines found in input")
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(f.Benchmarks), *out)
}

func runCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("baseline", "BENCH_baseline.json", "baseline JSON")
	curPath := fs.String("current", "BENCH_ci.json", "current JSON")
	threshold := fs.Float64("threshold", 2.0, "fail when current/baseline exceeds this ratio")
	zeroAllocsPat := fs.String("zero-allocs", "", "regexp of benchmarks that must report exactly 0 allocs/op")
	fs.Parse(args)
	if *threshold <= 1 {
		fatalf("threshold %v must be > 1", *threshold)
	}
	var zeroAllocs *regexp.Regexp
	if *zeroAllocsPat != "" {
		var err error
		if zeroAllocs, err = regexp.Compile(*zeroAllocsPat); err != nil {
			fatalf("bad -zero-allocs pattern: %v", err)
		}
	}
	baseline, err := readFile(*basePath)
	if err != nil {
		fatalf("%v", err)
	}
	current, err := readFile(*curPath)
	if err != nil {
		fatalf("%v", err)
	}
	rows, failures, extras := compare(baseline, current, *threshold, zeroAllocs)
	for _, r := range rows {
		status := "ok"
		if r.regression {
			status = "REGRESSION"
		}
		fmt.Printf("%-60s %14.0f %14.0f %8.2fx  %s\n", r.name, r.base, r.cur, r.ratio, status)
	}
	for _, name := range extras {
		fmt.Printf("%-60s %14s %14s %9s  new (no baseline)\n", name, "-", "-", "-")
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchdiff: FAIL %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d benchmarks within %.2fx of baseline\n", len(rows), *threshold)
}

// merge folds the parsed benchmarks of a run into a baseline: run entries
// replace (or join) baseline entries by name, untouched baseline entries
// survive. It returns the merged file and a human-readable change log.
func merge(baseline, run File) (File, []string) {
	byName := make(map[string]Benchmark, len(baseline.Benchmarks))
	order := make([]string, 0, len(baseline.Benchmarks)+len(run.Benchmarks))
	for _, b := range baseline.Benchmarks {
		byName[b.Name] = b
		order = append(order, b.Name)
	}
	var changes []string
	for _, b := range run.Benchmarks {
		if old, ok := byName[b.Name]; ok {
			if old.NsPerOp != b.NsPerOp {
				changes = append(changes, fmt.Sprintf("%s: %.0f → %.0f ns/op", b.Name, old.NsPerOp, b.NsPerOp))
			}
			if oa, na := old.AllocsPerOp, b.AllocsPerOp; (oa == nil) != (na == nil) || (oa != nil && *oa != *na) {
				changes = append(changes, fmt.Sprintf("%s: %s → %s allocs/op", b.Name, fmtAllocs(oa), fmtAllocs(na)))
			}
		} else {
			order = append(order, b.Name)
			changes = append(changes, fmt.Sprintf("%s: new entry at %.0f ns/op", b.Name, b.NsPerOp))
		}
		byName[b.Name] = b
	}
	var out File
	sort.Strings(order)
	for _, name := range order {
		out.Benchmarks = append(out.Benchmarks, byName[name])
	}
	return out, changes
}

func runUpdate(args []string) {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	in := fs.String("in", "", "raw `go test -bench` output, e.g. a downloaded CI bench.txt artifact (default stdin)")
	basePath := fs.String("baseline", "BENCH_baseline.json", "baseline JSON to update in place")
	fs.Parse(args)
	var raw []byte
	var err error
	if *in == "" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(*in)
	}
	if err != nil {
		fatalf("%v", err)
	}
	run, err := parseBench(string(raw))
	if err != nil {
		fatalf("%v", err)
	}
	if len(run.Benchmarks) == 0 {
		fatalf("no benchmark lines found in input")
	}
	baseline, err := readFile(*basePath)
	if err != nil && !os.IsNotExist(err) {
		fatalf("%v", err)
	}
	merged, changes := merge(baseline, run)
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*basePath, data, 0o644); err != nil {
		fatalf("%v", err)
	}
	for _, c := range changes {
		fmt.Println(c)
	}
	fmt.Printf("benchdiff: %s now holds %d benchmarks (%d updated from this run)\n",
		*basePath, len(merged.Benchmarks), len(run.Benchmarks))
}

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: benchdiff parse|compare|update [flags]")
	}
	switch os.Args[1] {
	case "parse":
		runParse(os.Args[2:])
	case "compare":
		runCompare(os.Args[2:])
	case "update":
		runUpdate(os.Args[2:])
	default:
		fatalf("unknown subcommand %q (want parse, compare or update)", os.Args[1])
	}
}
