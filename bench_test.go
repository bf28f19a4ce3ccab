// Benchmarks regenerating every figure and use case of the paper plus the
// extension experiments. Each benchmark corresponds to one experiment id;
// the internal/experiments package doc indexes the ids with the paper claim
// each reproduces, and cmd/zigbench prints the same artifacts as tables.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package ziggy_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/depend"
	"repro/internal/effect"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/synth"
)

// mustEngine builds an engine or aborts the benchmark.
func mustEngine(b *testing.B, cfg core.Config) *core.Engine {
	b.Helper()
	e, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// mustCrime builds the Figure 1 scenario once per benchmark.
func mustCrime(b *testing.B) *experiments.CrimeScenario {
	b.Helper()
	sc, err := experiments.NewCrimeScenario(42)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// BenchmarkFigure1CrimeViews measures the warm-path characterization of
// the paper's running example (dependency structure cached, as in an
// interactive session). The report memo is bypassed so the per-query
// pipeline is what's measured; BenchmarkCharacterizeCached covers the
// fully memoized repeat.
func BenchmarkFigure1CrimeViews(b *testing.B) {
	sc := mustCrime(b)
	engine := mustEngine(b, core.DefaultConfig())
	opts := core.Options{ExcludeColumns: sc.Exclude, SkipReportCache: true}
	if _, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Cold measures the same run with a cold cache: the full
// preparation stage (pairwise dependencies over 128 columns) is paid every
// iteration.
func BenchmarkFigure1Cold(b *testing.B) {
	sc := mustCrime(b)
	engine := mustEngine(b, core.DefaultConfig())
	opts := core.Options{ExcludeColumns: sc.Exclude}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.InvalidateCache()
		if _, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2ColumnSplit measures the Cᴵ/Cᴼ split of Figure 2 across
// all numeric columns of the crime table.
func BenchmarkFigure2ColumnSplit(b *testing.B) {
	sc := mustCrime(b)
	names := make([]string, 0, sc.Frame.NumCols())
	for _, idx := range sc.Frame.NumericColumns() {
		names = append(names, sc.Frame.Col(idx).Name())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			if _, _, err := sc.Frame.SplitNumeric(name, sc.Mask); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure3ZigComponents measures the Figure 3 component battery on
// the population × pop_density pair.
func BenchmarkFigure3ZigComponents(b *testing.B) {
	sc := mustCrime(b)
	inP, outP, err := sc.Frame.SplitNumeric("population", sc.Mask)
	if err != nil {
		b.Fatal(err)
	}
	inD, outD, err := sc.Frame.SplitNumeric("pop_density", sc.Mask)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sInP, sOutP := stats.Summarize(inP), stats.Summarize(outP)
		sInD, sOutD := stats.Summarize(inD), stats.Summarize(outD)
		effect.Means("population", sInP, sOutP)
		effect.Means("pop_density", sInD, sOutD)
		effect.StdDevs("population", sInP, sOutP)
		effect.StdDevs("pop_density", sInD, sOutD)
		effect.Correlations("population", "pop_density",
			stats.Pearson(inP, inD), len(inP), stats.Pearson(outP, outD), len(outP))
	}
}

// BenchmarkFigure4PipelineStages measures the full cold pipeline of Figure
// 4 on the Box Office table (the demo's introductory dataset).
func BenchmarkFigure4PipelineStages(b *testing.B) {
	f := synth.BoxOffice(42)
	q90, err := synth.QuantileOf(f, "gross_musd", 0.9)
	if err != nil {
		b.Fatal(err)
	}
	sel := thresholdMask(b, f, "gross_musd", q90)
	engine := mustEngine(b, core.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.InvalidateCache()
		if _, err := engine.Characterize(f, sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5ServerRoundTrip measures the Figure 5 demo interaction:
// one HTTP characterization request against the embedded web server.
func BenchmarkFigure5ServerRoundTrip(b *testing.B) {
	cat := db.NewCatalog()
	if err := cat.Register(synth.BoxOffice(42)); err != nil {
		b.Fatal(err)
	}
	router, err := shard.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(server.New(cat, router, nil))
	defer srv.Close()
	body, _ := json.Marshal(map[string]any{
		"sql":              "SELECT * FROM boxoffice WHERE gross_musd >= 100",
		"excludePredicate": true,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(srv.URL+"/api/characterize", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if _, err := bytes.NewBuffer(nil).ReadFrom(resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

// BenchmarkCatalogQuery measures the SQL layer the front runs on every
// characterize request, cached repeats included: parse, resolve and
// evaluate WHERE over uscrime(1). group_by also gathers the groups through
// Result.Rows. CI gates its allocs/op.
func BenchmarkCatalogQuery(b *testing.B) {
	cat := db.NewCatalog()
	if err := cat.Register(synth.USCrime(1)); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name, sql string
		rows      bool
	}{
		{"threshold", "SELECT * FROM uscrime WHERE crime_violent_rate >= 1300", false},
		{"and_or_in", "SELECT * FROM uscrime WHERE (crime_violent_rate >= 1300 AND pop_density < 500) OR region IN ('West', 'South')", false},
		{"group_by", "SELECT region, size_class, COUNT(*) FROM uscrime GROUP BY region, size_class", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			query := func() {
				res, err := cat.Query(bc.sql)
				if err != nil {
					b.Fatal(err)
				}
				if bc.rows {
					if _, err := res.Rows(); err != nil {
						b.Fatal(err)
					}
				}
			}
			query()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query()
			}
		})
	}
}

// crimeQuery is the repeat query the cached-path benchmarks serve: a
// threshold on uscrime(1).
const crimeQuery = "SELECT * FROM uscrime WHERE crime_violent_rate >= 1300"

// BenchmarkReportWire measures the report codec on every RPC that carries
// a report: encode then decode the uscrime(1) report of crimeQuery. B/report
// is its wire size. CI gates its allocs/op.
func BenchmarkReportWire(b *testing.B) {
	cat := db.NewCatalog()
	if err := cat.Register(synth.USCrime(1)); err != nil {
		b.Fatal(err)
	}
	res, err := cat.Query(crimeQuery)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := mustEngine(b, core.DefaultConfig()).Characterize(res.Base, res.Mask)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecodeReport(core.EncodeReport(rep)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(core.EncodeReport(rep))), "B/report")
}

// responseSink is a ResponseWriter reused across requests: Reset keeps the
// header map and the body buffer's capacity, so a benchmark that serves
// into it counts the server's allocations and not a recorder regrowing
// its body for every request.
type responseSink struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (s *responseSink) Header() http.Header { return s.header }

func (s *responseSink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *responseSink) Write(p []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	return s.body.Write(p)
}

// Reset readies the sink for the next response.
func (s *responseSink) Reset() {
	for k := range s.header {
		delete(s.header, k)
	}
	s.code = 0
	s.body.Reset()
}

// rewindBody is a request body that a benchmark rewinds between requests.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// BenchmarkFrontCachedHit measures a repeat POST /api/characterize of
// crimeQuery on a front whose only backend is a remote worker: after the
// worker's cache answered one repeat, the front's own report tier answers
// every later one, with no RPC. One request and one response sink serve
// every iteration, so the allocations counted are the server's. CI gates
// its allocs/op.
func BenchmarkFrontCachedHit(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	worker, err := shard.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(remote.NewWorker(worker))
	defer ts.Close()
	client := remote.NewClient(ts.URL)
	defer client.Close()
	front, err := shard.NewWithBackends(cfg, nil, []shard.Backend{client})
	if err != nil {
		b.Fatal(err)
	}
	cat := db.NewCatalog()
	if err := cat.Register(synth.USCrime(1)); err != nil {
		b.Fatal(err)
	}
	srv := server.New(cat, front, nil)
	body := []byte(`{"sql": "` + crimeQuery + `"}`)
	reqBody := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/api/characterize", nil)
	req.Body = reqBody
	sink := &responseSink{header: http.Header{}}
	post := func() {
		reqBody.Reset(body)
		sink.Reset()
		srv.ServeHTTP(sink, req)
		if sink.code != http.StatusOK {
			b.Fatalf("status %d: %s", sink.code, &sink.body)
		}
	}
	post() // cold: computed on the worker
	post() // the worker's cache answers the characterize; the front tier keeps it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	if w := worker.Stats().Reports; w.Hits != 1 {
		b.Fatalf("worker report tier served %d hits, want 1: repeats reached the worker", w.Hits)
	}
}

// benchUseCase measures a warm characterization of one §4.2 scenario.
func benchUseCase(b *testing.B, f *frame.Frame, col string, q float64) {
	b.Helper()
	threshold, err := synth.QuantileOf(f, col, q)
	if err != nil {
		b.Fatal(err)
	}
	sel := thresholdMask(b, f, col, threshold)
	engine := mustEngine(b, core.DefaultConfig())
	opts := core.Options{ExcludeColumns: []string{col}, SkipReportCache: true}
	if _, err := engine.CharacterizeOpts(f, sel, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.CharacterizeOpts(f, sel, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUseCaseBoxOffice measures §4.2's 900×12 walk-through scenario.
func BenchmarkUseCaseBoxOffice(b *testing.B) {
	benchUseCase(b, synth.BoxOffice(42), "gross_musd", 0.75)
}

// BenchmarkUseCaseUSCrime measures §4.2's 1994×128 crime scenario.
func BenchmarkUseCaseUSCrime(b *testing.B) {
	benchUseCase(b, synth.USCrime(42), "crime_violent_rate", 0.9)
}

// BenchmarkUseCaseInnovation measures §4.2's 6823×519 scale scenario.
func BenchmarkUseCaseInnovation(b *testing.B) {
	benchUseCase(b, synth.Innovation(42), "patents_per_capita", 0.9)
}

// plantedForBench builds the standard planted workload with the given
// column count.
func plantedForBench(b *testing.B, rows, cols int) *synth.PlantedData {
	b.Helper()
	pd, err := synth.Planted(synth.PlantedConfig{
		Seed: 42, Rows: rows, SelectionFraction: 0.25,
		Views: []synth.PlantedView{
			{Cols: 2, WithinCorr: 0.75, MeanShift: 1.5},
			{Cols: 2, WithinCorr: 0.75, ScaleRatio: 3},
			{Cols: 2, WithinCorr: 0.8, DecorrelateInside: true},
		},
		NoiseCols: cols - 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	return pd
}

// BenchmarkCharacterizeParallel measures the cold pipeline — column
// splitting, the O(cols²) dependency matrix, candidate scoring — on the
// large planted fixture under increasing worker counts. Output is
// bit-for-bit identical across sub-benchmarks (TestParallelDeterminism
// asserts it); only wall time changes. On a multi-core machine the
// dependency matrix dominates and scales near-linearly.
func BenchmarkCharacterizeParallel(b *testing.B) {
	pd := plantedForBench(b, 4000, 128)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Parallelism = p
			engine := mustEngine(b, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.InvalidateCache()
				if _, err := engine.Characterize(pd.Frame, pd.Selection); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCharacterizeCached measures the fully memoized serving hot
// path on the same fixture as BenchmarkCharacterizeParallel: a repeated
// identical query is a report-cache lookup (fingerprint the bitmap, hash
// the key, clone the report header). The acceptance bar is ≥50× faster
// than a cold run of BenchmarkCharacterizeParallel; in practice the gap is
// several orders of magnitude.
func BenchmarkCharacterizeCached(b *testing.B) {
	pd := plantedForBench(b, 4000, 128)
	engine := mustEngine(b, core.DefaultConfig())
	if _, err := engine.Characterize(pd.Frame, pd.Selection); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := engine.Characterize(pd.Frame, pd.Selection)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.ReportCacheHit {
			b.Fatal("repeat characterization missed the report cache")
		}
	}
}

// BenchmarkShardedThroughput measures sustained multi-table serving through
// the shard router over k = 1, 2 and 4 explicit local backends (the
// sub-benchmarks keep their shards=k names): four distinct tables, each
// owned by one backend, queried round-robin from GOMAXPROCS client
// goroutines. SkipReportCache forces every request through the per-query
// pipeline (prepared structures stay warm), so the number measures compute
// throughput under admission control rather than cache lookups; ns/op is
// the per-request wall time across all clients. On a multi-core runner,
// more backends let distinct tables characterize concurrently.
func BenchmarkShardedThroughput(b *testing.B) {
	const tables = 4
	fixtures := make([]*synth.PlantedData, tables)
	for i := range fixtures {
		pd, err := synth.Planted(synth.PlantedConfig{
			Seed: uint64(i + 1), Rows: 1000, SelectionFraction: 0.25,
			Views: []synth.PlantedView{
				{Cols: 2, WithinCorr: 0.75, MeanShift: 1.5},
			},
			NoiseCols: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		fixtures[i] = pd
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Parallelism = 1 // per-request parallelism off: backends provide the concurrency
			reports := core.NewReportCache(cfg.CacheEntries, cfg.CacheBytes)
			backends := make([]shard.Backend, n)
			for i := range backends {
				eb, err := shard.NewEngineBackend(cfg, reports, shard.Params{})
				if err != nil {
					b.Fatal(err)
				}
				backends[i] = eb
			}
			router, err := shard.NewWithBackends(cfg, reports, backends)
			if err != nil {
				b.Fatal(err)
			}
			opts := core.Options{SkipReportCache: true}
			for _, pd := range fixtures {
				if _, err := router.CharacterizeOpts(pd.Frame, pd.Selection, opts); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Int64
			var firstErr atomic.Value
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					pd := fixtures[int(next.Add(1))%tables]
					if _, err := router.CharacterizeOpts(pd.Frame, pd.Selection, opts); err != nil {
						// b.Fatal must not be called from worker goroutines;
						// record and fail after the fan-in.
						firstErr.CompareAndSwap(nil, err)
						return
					}
				}
			})
			b.StopTimer()
			if err := firstErr.Load(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRobustCharacterize measures the robust hot path (Cliff's delta
// + Mann-Whitney per numeric column) through the full pipeline, warm and
// cold, and reports the ranking-pass budget as rankops/op: cold runs sort
// each numeric column once while preparing the table, warm runs sort
// nothing — each query ranks from the prepared column rank indexes.
// TestRobustRankBudget pins the same invariant as a hard assertion. The
// engine runs at parallelism 1, as serving workers do, so its work does
// not depend on the machine's CPU count. Its allocs/op still moves by a
// few between identical runs (pool refills and the runtime's own
// allocations follow GC timing), so BENCH_baseline.json records no
// allocation ceiling for it.
func BenchmarkRobustCharacterize(b *testing.B) {
	sc := mustCrime(b)
	cfg := core.DefaultConfig()
	cfg.Robust = true
	cfg.Parallelism = 1
	opts := core.Options{ExcludeColumns: sc.Exclude, SkipReportCache: true}
	run := func(b *testing.B, warm bool) {
		engine := mustEngine(b, cfg)
		if warm {
			if _, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		before := stats.RankOps()
		for i := 0; i < b.N; i++ {
			if !warm {
				engine.InvalidateCache()
			}
			if _, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(stats.RankOps()-before)/float64(b.N), "rankops/op")
	}
	b.Run("warm", func(b *testing.B) { run(b, true) })
	b.Run("cold", func(b *testing.B) { run(b, false) })
}

// BenchmarkExtendedCharacterize measures a warm extended-mode
// characterization of the crime scenario in both modes at parallelism 1,
// with the report memo bypassed so the pipeline is paid every iteration.
// Both arms rank from the column rank indexes the warm-up prepared — the
// quantile and tail components read their order statistics off that
// Rank — so they report 0 rankops/op. No serving workload enables extended mode, so this
// is the gate that covers its path.
func BenchmarkExtendedCharacterize(b *testing.B) {
	sc := mustCrime(b)
	opts := core.Options{ExcludeColumns: sc.Exclude, SkipReportCache: true}
	for _, mode := range []struct {
		name   string
		robust bool
	}{{"parametric", false}, {"robust", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Extended = true
			cfg.Robust = mode.robust
			cfg.Parallelism = 1
			engine := mustEngine(b, cfg)
			if _, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			before := stats.RankOps()
			for i := 0; i < b.N; i++ {
				if _, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.RankOps()-before)/float64(b.N), "rankops/op")
		})
	}
}

// splitSink keeps the compiler from dropping BenchmarkRobustColumn's
// measured calls.
var splitSink [4]core.ColumnSplit

// BenchmarkRobustColumn times one numeric column's per-query work, with
// the column indexed once outside the loop as the prepared tier indexes it
// once per table. "walk" is the robust Rank of the column's index and
// Cliff's delta from it. "split" is the whole split a fresh query runs per
// numeric column on a robust engine (core.SplitColumns): the side counts,
// both sides' summaries and the Rank, on a warmed scratch. It runs on
// uscrime's population column under the crime selection, under the rows
// at or above its 90th and 50th percentiles (sel=10% and sel=50%, so the
// Rank's cost shows it follows the smaller side), and on an 8,192-row
// column with ties and NULLs, 30% selected. "split/block=4" splits four
// NULL-free uscrime columns under the crime selection in one block walk,
// as the engine walks a table's NULL-free columns. The CI bench job gates
// every split to 0 allocs/op via benchdiff -zero-allocs.
func BenchmarkRobustColumn(b *testing.B) {
	sc := mustCrime(b)
	in, out, err := sc.Frame.SplitNumeric("population", sc.Mask)
	if err != nil {
		b.Fatal(err)
	}
	pop := sc.Frame.ColIndex("population")
	xs := sc.Frame.Col(pop).Floats()
	var ranks stats.RankIndex
	ranks.Build(nil, xs)
	sel, rest := sc.Mask.Words(), sc.Mask.Clone().Not().Words()
	b.Run("walk", func(b *testing.B) {
		var s stats.RankingScratch
		for i := 0; i < b.N; i++ {
			r := ranks.Rank(&s, xs, sel, rest, len(in), len(out), false)
			_ = effect.CliffDeltaRanked("population", r)
		}
	})
	split := func(f *frame.Frame, mask *frame.Bitmap, cols ...int) func(b *testing.B) {
		return func(b *testing.B) {
			xs := make([][]float64, len(cols))
			ranks := make([]*stats.RankIndex, len(cols))
			for k, col := range cols {
				xs[k] = f.Col(col).Floats()
				ranks[k] = new(stats.RankIndex)
				ranks[k].Build(nil, xs[k])
			}
			valid := f.ColumnValidWords(cols[0])
			in, out := mask.Words(), mask.Clone().Not().Words()
			var s core.SplitScratch
			dst := splitSink[:len(cols)]
			core.SplitColumns(dst, xs, ranks, in, out, valid, &s) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.SplitColumns(dst, xs, ranks, in, out, valid, &s)
			}
		}
	}
	b.Run("split/column=population", split(sc.Frame, sc.Mask, pop))
	for _, q := range []struct {
		name  string
		level float64
	}{{"sel=10%", 0.9}, {"sel=50%", 0.5}} {
		threshold, err := synth.QuantileOf(sc.Frame, "population", q.level)
		if err != nil {
			b.Fatal(err)
		}
		mask := frame.NewBitmap(len(xs))
		for i, v := range xs {
			if v >= threshold {
				mask.Set(i)
			}
		}
		b.Run("split/"+q.name, split(sc.Frame, mask, pop))
	}
	var four []int
	for _, name := range []string{"population", "pop_density", "median_income", "pct_college_educ"} {
		i := sc.Frame.ColIndex(name)
		if i < 0 || sc.Frame.Col(i).NullCount() != 0 {
			b.Fatalf("uscrime column %q is missing or has NULLs", name)
		}
		four = append(four, i)
	}
	b.Run("split/block=4", split(sc.Frame, sc.Mask, four...))
	const n = 8192
	synthetic, mask := make([]float64, n), frame.NewBitmap(n)
	u := uint64(0x9e3779b97f4a7c15)
	for i := range synthetic {
		u ^= u << 13
		u ^= u >> 7
		u ^= u << 17
		synthetic[i] = float64(u%5000) / 7
		if u%32 == 0 {
			synthetic[i] = math.NaN()
		}
		if (u>>32)%10 < 3 {
			mask.Set(i)
		}
	}
	f, err := frame.New("split", []*frame.Column{frame.NewNumericColumn("x", synthetic)})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("split/rows=8192", split(f, mask, 0))
}

func BenchmarkRankingKernels(b *testing.B) {
	mk := func(n int, f func(u uint64) float64) []float64 {
		xs := make([]float64, n)
		s := uint64(0x9e3779b97f4a7c15)
		for i := range xs {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			xs[i] = f(s)
		}
		return xs
	}
	cases := []struct {
		name string
		xs   []float64
	}{
		{"shape=float", mk(4096, func(u uint64) float64 { return float64(u%1000003) / 997 })},
		{"shape=integral", mk(4096, func(u uint64) float64 { return float64(u % 64) })},
		{"shape=small", mk(48, func(u uint64) float64 { return float64(u%1000003) / 997 })},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var scratch stats.RankScratch
			var rs stats.RankingScratch
			var ranks stats.RankIndex
			na := len(c.xs) / 2
			sel := frame.NewBitmap(len(c.xs))
			for i := 0; i < na; i++ {
				sel.Set(i)
			}
			words, rest := sel.Words(), sel.Clone().Not().Words()
			ranks.Build(&scratch, c.xs) // warm the scratches
			ranks.Rank(&rs, c.xs, words, rest, na, len(c.xs)-na, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ranks.Build(&scratch, c.xs)
				_ = ranks.Rank(&rs, c.xs, words, rest, na, len(c.xs)-na, false)
			}
		})
	}
}

// BenchmarkScalingColumns measures experiment X1: cold pipeline cost as
// the column count grows at N=2000.
func BenchmarkScalingColumns(b *testing.B) {
	for _, m := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("cols=%d", m), func(b *testing.B) {
			pd := plantedForBench(b, 2000, m)
			engine := mustEngine(b, core.DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.InvalidateCache()
				if _, err := engine.Characterize(pd.Frame, pd.Selection); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingRows measures experiment X2: cold pipeline cost as the
// row count grows at M=64.
func BenchmarkScalingRows(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			pd := plantedForBench(b, n, 64)
			engine := mustEngine(b, core.DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.InvalidateCache()
				if _, err := engine.Characterize(pd.Frame, pd.Selection); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAccuracyVsBaselines measures experiment X3's per-method search
// cost on the planted workload (accuracy itself is asserted in the
// experiments package tests).
func BenchmarkAccuracyVsBaselines(b *testing.B) {
	pd := plantedForBench(b, 2000, 26)
	k := len(pd.TrueViews)
	b.Run("ziggy", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.MaxViews = k
		engine := mustEngine(b, cfg)
		opts := core.Options{SkipReportCache: true}
		if _, err := engine.CharacterizeOpts(pd.Frame, pd.Selection, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.CharacterizeOpts(pd.Frame, pd.Selection, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	methods := []baseline.Method{
		baseline.KLBeam{}, baseline.CentroidGreedy{}, baseline.PCA{}, baseline.Random{Seed: 1},
	}
	for _, m := range methods {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.FindViews(pd.Frame, pd.Selection, k, 2)
			}
		})
	}
}

// BenchmarkMinTightSweep measures experiment X4: warm view search under
// different tightness thresholds.
func BenchmarkMinTightSweep(b *testing.B) {
	sc := mustCrime(b)
	for _, mt := range []float64{0.3, 0.6, 0.9} {
		b.Run(fmt.Sprintf("minTight=%.1f", mt), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.MinTight = mt
			engine := mustEngine(b, cfg)
			opts := core.Options{ExcludeColumns: sc.Exclude, SkipReportCache: true}
			if _, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSharedStatsCache measures experiment X5, extended with the
// report memo: "cold" pays the whole pipeline, "warm" reuses the prepared
// dependency structure but recomputes the query (the pre-memo warm path),
// and "memoized" serves the repeat entirely from the report cache.
func BenchmarkSharedStatsCache(b *testing.B) {
	sc := mustCrime(b)
	b.Run("cold", func(b *testing.B) {
		engine := mustEngine(b, core.DefaultConfig())
		for i := 0; i < b.N; i++ {
			engine.InvalidateCache()
			if _, err := engine.Characterize(sc.Frame, sc.Mask); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		engine := mustEngine(b, core.DefaultConfig())
		opts := core.Options{SkipReportCache: true}
		if _, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		engine := mustEngine(b, core.DefaultConfig())
		if _, err := engine.Characterize(sc.Frame, sc.Mask); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Characterize(sc.Frame, sc.Mask); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLinkageAblation measures experiment X6: the view search under
// each linkage flavor (warm cache so the clustering itself dominates).
func BenchmarkLinkageAblation(b *testing.B) {
	pd := plantedForBench(b, 2000, 26)
	for _, linkage := range []cluster.Linkage{cluster.Complete, cluster.Single, cluster.Average} {
		b.Run(linkage.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Linkage = linkage
			engine := mustEngine(b, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.InvalidateCache()
				if _, err := engine.Characterize(pd.Frame, pd.Selection); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSamplingAblation measures experiment X7: the warm query path
// with and without the BlinkDB-style row cap on a 50k-row table.
func BenchmarkSamplingAblation(b *testing.B) {
	pd := plantedForBench(b, 50000, 26)
	for _, cap := range []int{0, 10000, 2000} {
		name := "exact"
		if cap > 0 {
			name = fmt.Sprintf("sample=%d", cap)
		}
		b.Run(name, func(b *testing.B) {
			engine := mustEngine(b, core.DefaultConfig())
			opts := core.Options{SkipReportCache: true, ApproxRows: cap}
			if _, err := engine.CharacterizeOpts(pd.Frame, pd.Selection, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.CharacterizeOpts(pd.Frame, pd.Selection, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// thresholdMask selects rows where col ≥ threshold.
func thresholdMask(b *testing.B, f *frame.Frame, col string, threshold float64) *frame.Bitmap {
	b.Helper()
	c, ok := f.Lookup(col)
	if !ok {
		b.Fatalf("missing column %q", col)
	}
	mask := frame.NewBitmap(f.NumRows())
	for i := 0; i < f.NumRows(); i++ {
		if !c.IsNull(i) && c.Float(i) >= threshold {
			mask.Set(i)
		}
	}
	return mask
}

// BenchmarkAppendCharacterize measures the incremental-characterization win
// of the chunked representation on the append lifecycle: a 20,000-row table
// of five numeric columns and the categorical tier grows by 5%, and the
// grown table is characterized with the report tier bypassed
// (SkipReportCache), so the pipeline itself is paid both times.
// "incremental" is the steady state of a live table: the base was
// characterized once, and each iteration appends a fresh tail onto the
// sealed base, leaving the superseded versions' entries to the LRU tiers as
// Session.Append does. Its full chunks carry over, so only the rows past
// the base's last chunk boundary rescan for fingerprints and validity
// words, and the dependency matrix resumes from the base's prefix state:
// its numeric pairs fold and its tier × numeric η cells feed only those
// rows. "cold" characterizes the same grown content built from scratch on
// purged caches, paying the whole-table seal and the full matrix. Both arms
// copy the column storage once per iteration. The robust_ and extended_ arms run the same two
// lifecycles on a Robust and an Extended engine, which also index every
// numeric column of each grown table again (core.Engine.columnRanks).
// Every arm's engine runs at parallelism 1, as serving workers do, so its
// work does not depend on the machine's CPU count. allocs/op still moves
// by one or two between identical runs with GC timing, so each arm's
// allocation ceiling in BENCH_baseline.json is the highest per-run
// minimum seen over several -count 3 runs.
//
// Each arm reports its preparation work per op: rowsfolded/op, the rows
// each numeric pair folded (depend.RowsFolded); etarowsfed/op, the rows
// each η cell fed (depend.EtaRowsFed) — both ~1,544 (the rows past 19 full
// chunks) incrementally against 21,000 cold; and sorts/op, the ranking
// passes (stats.RankOps) — one per numeric column in the robust and
// extended arms, incremental or cold alike.
func BenchmarkAppendCharacterize(b *testing.B) {
	const rows, cols, chunkRows, tailRows = 20000, 6, 1024, 1000
	whole := synth.Micro("micro", 7, rows+tailRows, cols)
	slice := func(lo, hi int) *frame.Frame {
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		return whole.Take(idx)
	}
	base, err := frame.NewChunked("micro", slice(0, rows).Columns(), chunkRows)
	if err != nil {
		b.Fatal(err)
	}
	tail := slice(rows, rows+tailRows)
	base.Fingerprint() // seal once: the steady state of a live table

	grown, err := base.Append(tail)
	if err != nil {
		b.Fatal(err)
	}
	med, err := synth.QuantileOf(grown, "m00", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	sel := frame.NewBitmap(grown.NumRows())
	for i, v := range grown.Col(0).Floats() {
		if v >= med {
			sel.Set(i)
		}
	}

	// freshCopy rebuilds the grown content on brand-new columns, dropping
	// every cached seal — the cost of loading the whole table again.
	freshCopy := func() *frame.Frame {
		out := make([]*frame.Column, grown.NumCols())
		for i, c := range grown.Columns() {
			switch c.Kind() {
			case frame.Numeric:
				out[i] = frame.NewNumericColumn(c.Name(), append([]float64(nil), c.Floats()...))
			default:
				nc, err := frame.NewCategoricalColumnFromCodes(c.Name(),
					append([]int32(nil), c.Codes()...), append([]string(nil), c.Dict()...))
				if err != nil {
					b.Fatal(err)
				}
				out[i] = nc
			}
		}
		f, err := frame.NewChunked("micro", out, chunkRows)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}

	// freshTail returns the tail with one column shifted by a per-iteration
	// epsilon: every iteration appends new content, so no grown table's own
	// prefix state can serve the next one.
	freshTail := func(i int) *frame.Frame {
		out := append([]*frame.Column(nil), tail.Columns()...)
		vals := append([]float64(nil), tail.Col(1).Floats()...)
		for k := range vals {
			vals[k] += float64(i+1) * 1e-9
		}
		out[1] = frame.NewNumericColumn(tail.Col(1).Name(), vals)
		f, err := frame.NewChunked("micro", out, chunkRows)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	type meters struct{ folded, fed, sorts int64 }
	read := func() meters { return meters{depend.RowsFolded(), depend.EtaRowsFed(), stats.RankOps()} }
	report := func(b *testing.B, start meters) {
		end, n := read(), float64(b.N)
		b.ReportMetric(float64(end.folded-start.folded)/n, "rowsfolded/op")
		b.ReportMetric(float64(end.fed-start.fed)/n/(cols-1), "etarowsfed/op")
		b.ReportMetric(float64(end.sorts-start.sorts)/n, "sorts/op")
	}

	opts := core.Options{SkipReportCache: true}
	for _, mode := range []struct {
		prefix           string
		robust, extended bool
	}{{"", false, false}, {"robust_", true, false}, {"extended_", false, true}} {
		cfg := core.DefaultConfig()
		cfg.Robust, cfg.Extended = mode.robust, mode.extended
		cfg.Parallelism = 1
		engine := mustEngine(b, cfg)
		b.Run(mode.prefix+"incremental", func(b *testing.B) {
			engine.InvalidateCache()
			baseSel := frame.NewBitmap(base.NumRows())
			for i := 0; i < base.NumRows()/2; i++ {
				baseSel.Set(i)
			}
			if _, err := engine.CharacterizeOpts(base, baseSel, opts); err != nil {
				b.Fatal(err)
			}
			start := read()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := base.Append(freshTail(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := engine.CharacterizeOpts(g, sel, opts); err != nil {
					b.Fatal(err)
				}
			}
			report(b, start)
		})
		b.Run(mode.prefix+"cold", func(b *testing.B) {
			start := read()
			for i := 0; i < b.N; i++ {
				engine.InvalidateCache()
				if _, err := engine.CharacterizeOpts(freshCopy(), sel, opts); err != nil {
					b.Fatal(err)
				}
			}
			report(b, start)
		})
	}
}

// BenchmarkFrameAppend times one Frame.Append of 256 rows onto a sealed
// 16,384 × 32 synth.Micro table with 1,024-row chunks, the shape of the
// serving benchmark's append workload. Its B/op and allocs/op are the
// allocation gate for a grown version that shares its base's cells instead
// of copying them.
func BenchmarkFrameAppend(b *testing.B) {
	const rows, cols, chunkRows, tailRows = 16384, 32, 1024, 256
	whole := synth.Micro("micro", 7, rows+tailRows, cols)
	idx := make([]int, rows+tailRows)
	for i := range idx {
		idx[i] = i
	}
	base, err := frame.NewChunked("micro", whole.Take(idx[:rows]).Columns(), chunkRows)
	if err != nil {
		b.Fatal(err)
	}
	tail, err := frame.NewChunked("micro", whole.Take(idx[rows:]).Columns(), chunkRows)
	if err != nil {
		b.Fatal(err)
	}
	base.Fingerprint() // seal once: the steady state of a live table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.Append(tail); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteAppendShip measures the chunk-granular transport on the
// append lifecycle, over a real worker HTTP round trip. "delta" re-registers
// a table that grew by a tail after its base already shipped: the two-phase
// manifest negotiation finds the resident prefix and only the new chunk
// crosses. "full" registers a from-scratch table of the same size every
// iteration: the cold path, every chunk crossing. The shipB/op and chunks/op
// metrics are read from the client's transport meters, so the gap between
// the arms is exactly the wire traffic the delta protocol saves (~rows/tail
// ×), independent of codec CPU noise.
func BenchmarkRemoteAppendShip(b *testing.B) {
	const rows, nCols, chunkRows, tailRows = 8192, 4, 1024, 512
	buildCols := func(delta float64, lo, n int) []*frame.Column {
		out := make([]*frame.Column, nCols)
		for c := 0; c < nCols; c++ {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(((lo+i)*(c+3))%257) + delta
			}
			out[c] = frame.NewNumericColumn(fmt.Sprintf("m%d", c), vals)
		}
		return out
	}
	newTarget := func(b *testing.B) *remote.Client {
		cfg := core.DefaultConfig()
		cfg.Parallelism = 1
		router, err := shard.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(remote.NewWorker(router))
		b.Cleanup(ts.Close)
		c := remote.NewClient(ts.URL)
		b.Cleanup(func() { c.Close() })
		return c
	}
	shipMetrics := func(b *testing.B, c *remote.Client, start shard.ShardSnapshot) {
		end := c.Snapshot()
		b.ReportMetric(float64(end.BytesShipped-start.BytesShipped)/float64(b.N), "shipB/op")
		b.ReportMetric(float64(end.ChunksShipped-start.ChunksShipped)/float64(b.N), "chunks/op")
	}

	b.Run("delta", func(b *testing.B) {
		c := newTarget(b)
		base, err := frame.NewChunked("ship", buildCols(0, 0, rows), chunkRows)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.RegisterTable(base); err != nil {
			b.Fatal(err)
		}
		start := c.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Each iteration appends a distinct tail (fresh fingerprint) onto
			// the one shipped base; only the tail's chunk should cross.
			tail, err := frame.NewChunked("ship", buildCols(float64(i+1), rows, tailRows), chunkRows)
			if err != nil {
				b.Fatal(err)
			}
			grown, err := base.Append(tail)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.RegisterTable(grown); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		shipMetrics(b, c, start)
	})

	b.Run("full", func(b *testing.B) {
		c := newTarget(b)
		start := c.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Distinct from the first row on: no resident prefix to adopt.
			f, err := frame.NewChunked("ship", buildCols(float64(i)+0.25, 0, rows), chunkRows)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.RegisterTable(f); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		shipMetrics(b, c, start)
	})
}
