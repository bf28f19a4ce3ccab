package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// tinySizes shrink every workload to a fraction of a second.
var tinySizes = sizes{
	setups: 1, pool: 4,
	wideRows: 512, wideCols: 12,
	growRows: 1024, growCols: 8, chunkRows: 128, tailRows: 64, cycle: 2,
	rate: 100, check: 8,
}

func tinyEnv(seed uint64, tr *tracer) *runEnv {
	return &runEnv{seed: seed, measure: 300 * time.Millisecond, sz: tinySizes, tr: tr, log: io.Discard}
}

// benchmarkSpec is the part of BENCHMARK.json the command must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryMetricPrinted runs every workload, untraced and traced, at a
// tiny size and checks that each metric BENCHMARK.json names is printed
// with its unit, that every answer was correct, and that the final JSON
// line carries exactly the metrics of its kind.
func TestEveryMetricPrinted(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); got != strings.Join(names, ", ") {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %s", names, got)
	}
	for _, w := range workloads {
		base, err := runWorkload(w, tinyEnv(1, nil))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := runWorkload(w, tinyEnv(1, newTracer()))
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, r := range []*result{base, traced} {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s (traced %t): correct %t, %d of %d failed: %v", w.name, r.Traced, r.Correct, r.Failed, r.Attempted, r.Problems)
			}
		}
		var out bytes.Buffer
		report(&out, base, traced)
		printed := map[string]string{}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) == 5 && f[0] == w.name {
				printed[f[1]] = f[3]
			}
		}
		for _, m := range append(append([]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}(nil), spec.EndToEnd...), spec.PerLayer...) {
			if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: metric %s printed with unit %q, want %q", w.name, m.Name, unit, m.Unit)
			}
		}
		if v := base.Metrics["latency_p50_ms"].Value; v <= 0 {
			t.Errorf("%s: latency_p50_ms = %v", w.name, v)
		}

		for _, tc := range []struct {
			traced *result
			want   int
		}{{nil, len(spec.EndToEnd)}, {traced, len(spec.PerLayer)}} {
			f := finalResult{Correct: true, Metrics: map[string]jsonMetric{}}
			f.add(base, tc.traced, false)
			if len(f.Metrics) != tc.want {
				t.Errorf("%s: final result has %d metrics, want %d", w.name, len(f.Metrics), tc.want)
			}
		}
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		h1, err := scheduleHash(w, tinyEnv(1, nil))
		if err != nil {
			t.Fatal(err)
		}
		again, _ := scheduleHash(w, tinyEnv(1, nil))
		other, _ := scheduleHash(w, tinyEnv(2, nil))
		if h1 != again {
			t.Errorf("%s: seed 1 hashed %s then %s", w.name, h1, again)
		}
		if h1 == other {
			t.Errorf("%s: seeds 1 and 2 share schedule hash %s", w.name, h1)
		}
	}
}

// TestOracleCatchesCorruptAnswers corrupts one recorded answer and expects
// both the repeat check and the reference check to fail.
func TestOracleCatchesCorruptAnswers(t *testing.T) {
	res, err := runWorkload(lookupWorkload("revisit"), tinyEnv(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.oracle.kept) == 0 {
		t.Fatalf("clean run: correct %t, %d answers kept: %v", res.Correct, len(res.oracle.kept), res.Problems)
	}
	k := res.oracle.kept[0]
	bad := append([]byte(nil), k.norm...)
	bad[len(bad)/2] ^= 0x20

	res.oracle.observe(k.q, bad)
	if ok, _ := res.oracle.verdict(); ok {
		t.Error("a repeat answering corrupted bytes passed the oracle")
	}

	ref, err := httpReference(core.DefaultConfig(), demoTables(tinySizes))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(1)
	o.observe(k.q, bad)
	o.checkReference(ref)
	if ok, _ := o.verdict(); ok {
		t.Error("a corrupted first answer passed the reference check")
	}
	o = newOracle(1)
	o.observe(k.q, k.norm)
	o.checkReference(ref)
	if ok, problems := o.verdict(); !ok {
		t.Errorf("the uncorrupted answer failed the reference check: %v", problems)
	}
}
