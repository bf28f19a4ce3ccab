package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
	// traced marks per-layer metrics measured from spans or side passes,
	// which only the traced run produces.
	traced bool
}

// endToEnd are the metrics an explorer sees; BENCHMARK.json bounds them.
// Latency and throughput describe the workload's measured operation: a
// characterize request, or on the append workload an append together with
// the characterization of the grown table.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p90_ms", unit: "ms"},
	{name: "throughput_rps", unit: "req/s"},
	{name: "rss_mb", unit: "MB"},
}

// perLayer are the diagnostics that say which layer moved. Every workload
// reports every one; a layer the workload does not exercise reads 0 with 0
// samples.
var perLayer = []metricDef{
	{name: "client.read_p50_ms", unit: "ms"},
	{name: "client.self_ms", unit: "ms", traced: true},
	{name: "server.self_ms", unit: "ms", traced: true},
	{name: "db.query_ms", unit: "ms", traced: true},
	{name: "shard.probe_ms", unit: "ms", traced: true},
	{name: "shard.probe_hit_ratio", unit: "ratio", traced: true},
	{name: "shard.characterize_ms", unit: "ms", traced: true},
	{name: "shard.register_ms", unit: "ms", traced: true},
	{name: "shard.admit_wait_ms", unit: "ms", traced: true},
	{name: "shard.busiest_share", unit: "ratio"},
	{name: "remote.probe_overhead_ms", unit: "ms", traced: true},
	{name: "remote.rpc_overhead_ms", unit: "ms", traced: true},
	{name: "remote.worker_self_ms", unit: "ms", traced: true},
	{name: "remote.ship_ms", unit: "ms", traced: true},
	{name: "remote.invalidate_ms", unit: "ms", traced: true},
	{name: "remote.bytes_per_append", unit: "bytes"},
	{name: "remote.chunks_per_append", unit: "count"},
	{name: "core.prepare_hit_ms", unit: "ms", traced: true},
	{name: "core.prepare_miss_ms", unit: "ms", traced: true},
	{name: "core.search_ms", unit: "ms", traced: true},
	{name: "core.post_ms", unit: "ms", traced: true},
	{name: "depend.matrix_ms", unit: "ms", traced: true},
	{name: "memo.report_hit_ratio", unit: "ratio"},
	{name: "memo.prepared_hit_ratio", unit: "ratio"},
	{name: "memo.evictions", unit: "count"},
	{name: "memo.dedup", unit: "count"},
	{name: "frame.append_ms", unit: "ms", traced: true},
	{name: "frame.chunk_scans_per_append", unit: "count"},
	{name: "runtime.cpu_ms_per_req", unit: "ms"},
	{name: "runtime.alloc_kb_per_req", unit: "KB"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "gen.late_ms", unit: "ms"},
	{name: "gen.backlog_max", unit: "count"},
	{name: "gen.rejected_draws", unit: "count"},
	{name: "trace.overhead_pct", unit: "%"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metrics collects a run's values; set fills in the unit from the
// definitions so a name and its unit cannot drift apart.
type metrics map[string]metric

var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

func (m metrics) set(name string, v float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: undefined metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// quantile returns the q-th quantile of vals (linear interpolation between
// order statistics), 0 for no samples. It sorts vals in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return stats.Quantile(vals, q)
}

// setQuantile records the q-th quantile of vals under name.
func (m metrics) setQuantile(name string, vals []float64, q float64) {
	m.set(name, quantile(vals, q), len(vals))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// processCounters are the process-wide resource counters read at the edges
// of the measured phase.
type processCounters struct {
	cpu     time.Duration
	alloc   uint64
	gcPause uint64
}

func readProcessCounters() processCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return processCounters{cpu: cpu, alloc: ms.TotalAlloc, gcPause: ms.PauseTotalNs}
}

// setRuntime records the runtime layer's cost per completed operation over
// the measured phase.
func (m metrics) setRuntime(before, after processCounters, ops int) {
	m.set("runtime.cpu_ms_per_req", ratio(millis(after.cpu-before.cpu), float64(ops)), ops)
	m.set("runtime.alloc_kb_per_req", ratio(float64(after.alloc-before.alloc)/1024, float64(ops)), ops)
	m.set("runtime.gc_pause_ms", float64(after.gcPause-before.gcPause)/1e6, ops)
}

// residentMB reads the process's resident set (VmRSS) in MB.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := bytes.Fields(sc.Bytes())
		if len(fields) == 3 && string(fields[0]) == "VmRSS:" {
			kb, err := strconv.ParseFloat(string(fields[1]), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}

// rssSampler reads the resident set every rssInterval while the measured
// phase runs.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

const rssInterval = 100 * time.Millisecond

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mb)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the samples.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.samples, s.err
}
