// Command benchmark measures Ziggy the way an explorer meets it: a front
// (internal/server) and two workers (internal/remote) serving on loopback
// TCP, driven by one load generator in the same process.
//
//	bash benchmark/run.sh --workload revisit --seed 1 --seconds 20 --trace 0
//	cd benchmark && go run . -seed 1                    # every workload
//	cd benchmark && go run . -workload sweep -trace 1 -spans spans.json
//
// Each workload runs in a fresh child process of this command, so caches,
// heap and peak RSS start clean. An untraced run gives the end-to-end
// metrics; -trace 1 adds a traced run whose spans give the per-layer
// metrics. Every metric is printed as "workload metric value unit samples",
// and the last line of standard output is one JSON object with the
// correctness verdict, the request counts and the metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	spans    string
	out      string
	child    bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated queries, tails and arrival times")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of each measured phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 adds a traced run that reports the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "file to write the traced run's spans to (JSON; with -trace 1 and one workload)")
	fs.StringVar(&o.out, "out", "", "file to write the final JSON result to")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process and print its raw result")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if o.workload != "all" && lookupWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want all or one of %s)", o.workload, workloadNames())
	}
	if o.spans != "" && (o.trace != 1 || o.workload == "all") {
		return o, fmt.Errorf("-spans needs -trace 1 and a single -workload")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.child {
		return runChild(o, stdout, stderr)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	final := finalResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, name := range names {
		base, err := spawn(o, name, false)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		var traced *result
		if o.trace == 1 {
			if traced, err = spawn(o, name, true); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s traced: %v\n", name, err)
				return 1
			}
		}
		report(stdout, base, traced)
		final.add(base, traced, len(names) > 1)
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.out != "" {
		if err := os.WriteFile(o.out, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in this process and prints its raw result as
// one JSON line for the parent.
func runChild(o options, stdout, stderr io.Writer) int {
	w := lookupWorkload(o.workload)
	env := &runEnv{
		seed:    o.seed,
		measure: time.Duration(o.seconds * float64(time.Second)),
		sz:      fullSizes,
		log:     stderr,
	}
	if o.trace == 1 {
		env.tr = newTracer()
	}
	res, err := runWorkload(w, env)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if o.spans != "" && env.tr != nil {
		if err := env.tr.dump(o.spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: writing spans: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// spawn re-executes this command for one workload and returns the child's
// result. The child inherits standard error; its standard output carries
// only the result line.
func spawn(o options, name string, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
	if traced {
		args = append(args, "-trace", "1")
		if o.spans != "" {
			args = append(args, "-spans", o.spans)
		}
	}
	// A child normally ends within a few set-ups plus its measured phase;
	// the cap only keeps a hung child from hanging the caller.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Duration(o.seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("child result %q: %w", last, err)
	}
	return &res, nil
}

// report prints one workload's metrics, one per line: the hash of the
// schedule its seed produced, the end-to-end metrics of the untraced run,
// and with a traced run its end-to-end
// metrics, the tracing overhead, the self-time breakdown and the per-layer
// metrics.
func report(w io.Writer, base, traced *result) {
	fmt.Fprintf(w, "%s schedule %s\n", base.Workload, base.Schedule)
	for _, d := range endToEnd {
		printMetric(w, base.Workload, d.name, base.Metrics[d.name])
	}
	for _, p := range base.Problems {
		fmt.Fprintf(w, "%s oracle %s\n", base.Workload, p)
	}
	if traced == nil {
		return
	}
	for _, d := range endToEnd {
		printMetric(w, base.Workload, "traced."+d.name, traced.Metrics[d.name])
	}
	for _, p := range traced.Problems {
		fmt.Fprintf(w, "%s oracle %s\n", base.Workload, p)
	}
	b, t := base.Metrics["latency_p50_ms"].Value, traced.Metrics["latency_p50_ms"].Value
	fmt.Fprintf(w, "%s trace_overhead latency_p50_ms %+.4f ms (%+.1f%%)\n", base.Workload, t-b, overheadPct(b, t))
	names := make([]string, 0, len(traced.SelfMs))
	for n := range traced.SelfMs {
		names = append(names, n)
	}
	sort.Strings(names)
	sum := 0.0
	for _, n := range names {
		fmt.Fprintf(w, "%s self %s %.4f ms\n", base.Workload, n, traced.SelfMs[n])
		sum += traced.SelfMs[n]
	}
	if traced.ClientMs > 0 {
		fmt.Fprintf(w, "%s trace_check mean_client_ms %.4f sum_self_ms %.4f (%.1f%%) spans_linked %.1f%%\n",
			base.Workload, traced.ClientMs, sum, 100*sum/traced.ClientMs, 100*traced.Linked)
	}
	for _, d := range perLayer {
		printMetric(w, base.Workload, d.name, layerMetric(d, base, traced))
	}
}

func printMetric(w io.Writer, workload, name string, m metric) {
	fmt.Fprintf(w, "%s %s %s %s %d\n", workload, name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit, m.Samples)
}

func overheadPct(base, traced float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (traced - base) / base
}

// layerMetric picks a per-layer metric from the run that measures it:
// span-derived metrics from the traced run, counters from the untraced one.
func layerMetric(d metricDef, base, traced *result) metric {
	if d.name == "trace.overhead_pct" {
		b, t := base.Metrics["latency_p50_ms"], traced.Metrics["latency_p50_ms"]
		return metric{Value: overheadPct(b.Value, t.Value), Unit: d.unit, Samples: t.Samples}
	}
	if d.traced {
		return traced.Metrics[d.name]
	}
	return base.Metrics[d.name]
}

// finalResult is the last line of standard output.
type finalResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add folds one workload's runs into the final result: the end-to-end
// metrics without a traced run, the per-layer metrics with one. prefixed
// names the metrics "<workload>.<metric>" when several workloads ran.
func (f *finalResult) add(base, traced *result, prefixed bool) {
	runs := []*result{base}
	defs := endToEnd
	if traced != nil {
		runs = append(runs, traced)
		defs = perLayer
	}
	for _, r := range runs {
		f.Correct = f.Correct && r.Correct
		f.Attempted += r.Attempted
		f.Failed += r.Failed
	}
	for _, d := range defs {
		m := base.Metrics[d.name]
		if traced != nil {
			m = layerMetric(d, base, traced)
		}
		name := d.name
		if prefixed {
			name = base.Workload + "." + name
		}
		f.Metrics[name] = jsonMetric{Value: m.Value, Unit: d.unit}
	}
}
