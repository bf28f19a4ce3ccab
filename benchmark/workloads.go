package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/depend"
	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/synth"
)

// sizes scale a run. The command always runs fullSizes; the smoke test
// shrinks them.
type sizes struct {
	setups int // set-ups per run; setup_s is their median
	pool   int // repeat-pool queries per table
	// wide is the sweep's micro table.
	wideRows, wideCols int
	// The append workload's three chunked micro tables, the rows each
	// append adds, and the appends per table before the tables are reset to
	// their initial content.
	growRows, growCols, chunkRows, tailRows, cycle int
	rate                                           float64 // arrivals per second
	check                                          int     // distinct requests replayed against the reference
}

var fullSizes = sizes{
	setups: 5, pool: 16,
	wideRows: 8192, wideCols: 48,
	growRows: 16384, growCols: 32, chunkRows: 1024, tailRows: 256, cycle: 4,
	rate: 250, check: 64,
}

// runEnv is one run's settings.
type runEnv struct {
	seed    uint64
	measure time.Duration
	sz      sizes
	tr      *tracer // nil on the untraced run
	log     io.Writer
}

// sessions is the load generator's concurrency: the closed loops' session
// count, the open loop's sender count and the client's connection limit,
// one per core of the two-core machine the benchmark was sized on.
const sessions = 2

// workload is one traffic mix.
type workload struct {
	name string
	// HTTP workloads drive the front over its JSON API.
	robust bool
	tables func(sz sizes) []*frame.Frame
	plan   func(env *runEnv, g *generator, tables []*genTable) *httpPlan
	// run replaces the HTTP runner (append drives sessions directly).
	run func(env *runEnv) (*result, error)
}

// workloads, and why each exists:
//
//   - revisit: explorers re-running queries. The report cache answers every
//     request, so the front's JSON and SQL, the probe RPC and the router do
//     all the work and the engine none.
//   - sweep: threshold sweeps. Every request misses the report cache and
//     hits the warmed prepared tier on robust-mode workers, so split,
//     ranking kernels, search and post-processing dominate.
//   - append: writes beside reads. Every append misses the prepared tier
//     (a dependency-matrix rebuild) and ships chunks, while a reader shows
//     whether that slows queries.
//   - arrivals: independent explorers arriving on a Poisson schedule, four
//     fifths repeats and one fifth fresh. Only an open loop shows cached
//     requests queueing behind fresh ones.
var workloads = []*workload{
	{name: "revisit", tables: demoTables, plan: revisitPlan},
	{name: "sweep", robust: true, tables: sweepTables, plan: sweepPlan},
	{name: "append", run: runAppend},
	{name: "arrivals", tables: demoTables, plan: arrivalsPlan},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func demoTables(sizes) []*frame.Frame {
	return []*frame.Frame{synth.USCrime(1), synth.BoxOffice(1)}
}

func sweepTables(sz sizes) []*frame.Frame {
	return []*frame.Frame{synth.USCrime(1), synth.Micro("wide", 7, sz.wideRows, sz.wideCols)}
}

// httpPlan is an HTTP workload's inputs, a pure function of the seed.
type httpPlan struct {
	warm     []query   // served during set-up
	stream   *stream   // closed loops
	arrivals []arrival // open loop
}

// arrival is one open-loop request and when it is due after the start.
type arrival struct {
	at time.Duration
	q  query
}

func pools(env *runEnv, g *generator, tables []*genTable) [][]query {
	out := make([][]query, len(tables))
	for i, t := range tables {
		out[i] = g.pool(randx.New(mix(env.seed, tagPool, uint64(i))), t, env.sz.pool)
	}
	return out
}

func revisitPlan(env *runEnv, g *generator, tables []*genTable) *httpPlan {
	p := pools(env, g, tables)
	return &httpPlan{warm: withBoth(p), stream: poolStream(randx.New(mix(env.seed, tagStream)), p)}
}

// sweepWeights draws three uscrime queries for each query on the slower
// wide table, so the median falls among uscrime queries and p90 among wide
// ones instead of on the gap between the two, where it would swing with the
// run-to-run share of each.
var sweepWeights = []float64{3, 1}

// sweepPlan warms the prepared tier with one fresh query per table; the
// stream's queries are fresh too, so none of them hits the report cache.
func sweepPlan(env *runEnv, g *generator, tables []*genTable) *httpPlan {
	r := randx.New(mix(env.seed, tagStream))
	var warm []query
	for _, t := range tables {
		warm = append(warm, g.fresh(r, t))
	}
	return &httpPlan{warm: warm, stream: freshStream(r, g, tables, sweepWeights)}
}

// repeatShare is the share of arrivals that repeat a warmed pool query;
// the rest are fresh uscrime queries. The median then falls among repeats
// and p90 among fresh queries, where the latency distribution is steep,
// not on the boundary between them, where a small change in the mix moves
// a percentile far.
const repeatShare = 0.8

func arrivalsPlan(env *runEnv, g *generator, tables []*genTable) *httpPlan {
	p := pools(env, g, tables)
	r := randx.New(mix(env.seed, tagArrivals))
	var arr []arrival
	for t := r.ExpFloat64() / env.sz.rate; t < env.measure.Seconds(); t += r.ExpFloat64() / env.sz.rate {
		var q query
		if r.Bernoulli(repeatShare) {
			pool := p[r.Intn(len(p))]
			q = pool[r.Intn(len(pool))]
			q.exclude = r.Bernoulli(excludeShare)
		} else {
			q = g.fresh(r, tables[0])
		}
		arr = append(arr, arrival{at: time.Duration(t * float64(time.Second)), q: q})
	}
	return &httpPlan{warm: withBoth(p), arrivals: arr}
}

// result is one run of one workload, as a child process reports it.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Schedule  string   `json:"schedule"`
	Metrics   metrics  `json:"metrics"`
	// The traced run's self-time breakdown: mean self time per request by
	// span name, the mean client latency, and the share of spans linked.
	SelfMs   map[string]float64 `json:"self_ms,omitempty"`
	ClientMs float64            `json:"client_ms,omitempty"`
	Linked   float64            `json:"linked,omitempty"`

	oracle *oracle
}

// runWorkload runs one workload in this process.
func runWorkload(w *workload, env *runEnv) (*result, error) {
	hash, err := scheduleHash(w, env)
	if err != nil {
		return nil, err
	}
	var res *result
	if w.run != nil {
		res, err = w.run(env)
	} else {
		res, err = runHTTP(w, env)
	}
	if err != nil {
		return nil, err
	}
	res.Workload, res.Traced, res.Schedule = w.name, env.tr != nil, hash
	res.Correct, res.Problems = res.oracle.verdict()
	return res, nil
}

// genTables wraps frames for the query generator.
func genTables(frames []*frame.Frame) ([]*genTable, error) {
	var out []*genTable
	for _, f := range frames {
		t, err := newGenTable(f)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// scheduleHash fingerprints the inputs a seed produces: the set-up's warm
// requests, the first requests of the closed-loop stream, or every
// open-loop arrival.
func scheduleHash(w *workload, env *runEnv) (string, error) {
	var b strings.Builder
	if w.run != nil {
		if err := appendSchedule(&b, env); err != nil {
			return "", err
		}
	} else {
		tables, err := genTables(w.tables(env.sz))
		if err != nil {
			return "", err
		}
		g := newGenerator()
		p := w.plan(env, g, tables)
		for _, q := range p.warm {
			fmt.Fprintf(&b, "warm %s\n", q.id())
		}
		if p.stream != nil {
			for i := 0; i < 256; i++ {
				fmt.Fprintf(&b, "req %s\n", p.stream.take().id())
			}
		}
		for _, a := range p.arrivals {
			fmt.Fprintf(&b, "at %d %s\n", a.at, a.q.id())
		}
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// recorder collects the measured operations of one loop.
type recorder struct {
	or  *oracle
	log io.Writer

	mu        sync.Mutex
	lat       []float64 // ms, completed operations
	attempted int
	failed    int
}

func (r *recorder) done(lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 3 {
			fmt.Fprintf(r.log, "benchmark: request failed: %v\n", err)
		}
		return
	}
	r.lat = append(r.lat, millis(lat))
}

// http records one HTTP request and checks its answer.
func (r *recorder) http(q query, lat time.Duration, status int, body []byte, err error) {
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%q: HTTP %d: %s", q.id(), status, bytes.TrimSpace(body))
	}
	if err == nil {
		if norm, ok := normalizeJSON(body); ok {
			r.or.observe(q, norm)
		} else {
			r.or.fail("malformed response to %q", q.id())
		}
	}
	r.done(lat, err)
}

// keyer fills a query's trace keys from the generator's copy of the
// tables, which has the same content, and so the same fingerprints, as the
// served tables. Keys are remembered per request, so repeats cost a lookup.
func keyer(tables []*frame.Frame) (func(q *query), error) {
	catalog := db.NewCatalog()
	for _, f := range tables {
		if err := catalog.Register(f); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	known := map[string][2]uint64{}
	return func(q *query) {
		mu.Lock()
		k, ok := known[q.id()]
		mu.Unlock()
		if !ok {
			res, err := catalog.Query(q.sql)
			if err != nil {
				return
			}
			fp := res.Base.Fingerprint()
			k = [2]uint64{requestKey(fp, res.Mask, q.opts()), fp}
			mu.Lock()
			known[q.id()] = k
			mu.Unlock()
		}
		q.key, q.tableFP = k[0], k[1]
	}, nil
}

// runHTTP runs a workload against the full serving stack.
func runHTTP(w *workload, env *runEnv) (*result, error) {
	cfg := core.DefaultConfig()
	cfg.Robust = w.robust
	genFrames := w.tables(env.sz)
	tables, err := genTables(genFrames)
	if err != nil {
		return nil, err
	}
	g := newGenerator()
	plan := w.plan(env, g, tables)
	var keyed func(*query)
	if env.tr != nil {
		if keyed, err = keyer(genFrames); err != nil {
			return nil, err
		}
		// Open-loop requests are keyed ahead, so keying never delays a send.
		for i := range plan.arrivals {
			keyed(&plan.arrivals[i].q)
		}
	}

	var st *httpStack
	var setups []float64
	for i := 0; i < env.sz.setups; i++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		env.tr.reset()
		start := time.Now()
		if st, err = startHTTPStack(cfg, w.tables(env.sz), env.tr); err != nil {
			return nil, err
		}
		if err := st.client.warm(plan.warm); err != nil {
			st.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()

	res := &result{Metrics: metrics{}, oracle: newOracle(env.sz.check)}
	m := res.Metrics
	m.setQuantile("setup_s", setups, 0.5)
	rec := &recorder{or: res.oracle, log: env.log}
	var from int64
	if env.tr != nil {
		from = env.tr.now()
	}
	rssSamples := sampleRSS()
	before, beforeW := readProcessCounters(), st.workers.totals()
	var elapsed time.Duration
	var late []float64
	backlog := 0
	if plan.stream != nil {
		elapsed = closedLoop(st.client, plan.stream, env.measure, keyed, rec)
	} else {
		elapsed, late, backlog = openLoop(st.client, plan.arrivals, rec)
	}
	after, afterW := readProcessCounters(), st.workers.totals()
	rss, err := rssSamples.finish()
	if err != nil {
		return nil, err
	}

	res.Attempted, res.Failed = rec.attempted, rec.failed
	setLatency(m, rec.lat, elapsed, rss)
	m.setQuantile("client.read_p50_ms", rec.lat, 0.5)
	m.setRuntime(before, after, len(rec.lat))
	m.setCacheMetrics(beforeW, afterW)
	m.setQuantile("gen.late_ms", late, 0.9)
	m.set("gen.backlog_max", float64(backlog), len(late))
	m.set("gen.rejected_draws", float64(g.rejected), g.rejected)
	m.set("remote.bytes_per_append", 0, 0)
	m.set("remote.chunks_per_append", 0, 0)
	m.set("frame.chunk_scans_per_append", 0, 0)

	ref, err := httpReference(cfg, genFrames)
	if err != nil {
		return nil, err
	}
	res.oracle.checkReference(ref)

	if env.tr != nil {
		f := env.tr.fold(from)
		f.layerMetrics(m)
		res.SelfMs, res.ClientMs, res.Linked = f.selfBreakdown(from)
		var sqls []string
		for _, k := range res.oracle.kept {
			sqls = append(sqls, k.q.sql)
		}
		m.setQuantile("db.query_ms", timeQueries(genFrames, sqls), 0.5)
		m.setQuantile("depend.matrix_ms", timeMatrices(cfg, genFrames), 0.5)
	}
	return res, nil
}

// setLatency records the end-to-end metrics of the measured operations.
func setLatency(m metrics, lat []float64, elapsed time.Duration, rss []float64) {
	m.setQuantile("latency_p50_ms", lat, 0.5)
	m.setQuantile("latency_p90_ms", lat, 0.9)
	m.set("throughput_rps", ratio(float64(len(lat)), elapsed.Seconds()), len(lat))
	m.setQuantile("rss_mb", rss, 0.5)
}

// closedLoop runs the sessions back to back, each sending its next request
// once the previous one answered, until the measured phase ends.
func closedLoop(c *client, src *stream, d time.Duration, keyed func(*query), rec *recorder) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q := src.take()
				if keyed != nil {
					keyed(&q)
				}
				t0 := time.Now()
				status, body, err := c.do(&q)
				rec.http(q, time.Since(t0), status, body, err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop sends every arrival when it is due, over the client's
// connections, whether or not earlier requests have answered. A request's
// latency counts from when it was due, so time spent waiting for a free
// connection counts too. It returns the elapsed time, how late each request
// was sent, and the most requests that were ever due but not yet sent.
func openLoop(c *client, arr []arrival, rec *recorder) (time.Duration, []float64, int) {
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	late := make([]float64, 0, len(arr))
	backlog := 0
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arr) {
					return
				}
				q := arr[i].q
				due := start.Add(arr[i].at)
				time.Sleep(time.Until(due))
				now := time.Since(start)
				waiting := sort.Search(len(arr), func(j int) bool { return arr[j].at > now }) - i
				mu.Lock()
				late = append(late, millis(now-arr[i].at))
				backlog = max(backlog, waiting)
				mu.Unlock()
				status, body, err := c.do(&q)
				rec.http(q, time.Since(due), status, body, err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), late, backlog
}

// httpReference returns the reference the oracle compares against: the
// demo server over one in-process engine, served without a network.
func httpReference(cfg core.Config, tables []*frame.Frame) (func(q query) ([]byte, error), error) {
	cfg.Shards, cfg.Parallelism = 1, 1
	catalog := db.NewCatalog()
	for _, f := range tables {
		if err := catalog.Register(f); err != nil {
			return nil, err
		}
	}
	router, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	srv := server.New(catalog, router, nil)
	return func(q query) ([]byte, error) {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/characterize", bytes.NewReader(q.body())))
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("HTTP %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes()))
		}
		norm, ok := normalizeJSON(w.Body.Bytes())
		if !ok {
			return nil, fmt.Errorf("malformed reference response")
		}
		return norm, nil
	}, nil
}

// timeQueries is the SQL layer's side pass: it times db.Catalog.Query on
// each query, outside the measured phase.
func timeQueries(tables []*frame.Frame, sqls []string) []float64 {
	catalog := db.NewCatalog()
	for _, f := range tables {
		catalog.Register(f) // the tables were served already, so they are valid
	}
	var out []float64
	for _, sql := range sqls {
		start := time.Now()
		if _, err := catalog.Query(sql); err == nil {
			out = append(out, millis(time.Since(start)))
		}
	}
	return out
}

// timeMatrices is the dependency layer's side pass: it times the
// sequential dependency matrix of each table version, the work a prepared
// tier miss does.
func timeMatrices(cfg core.Config, tables []*frame.Frame) []float64 {
	var out []float64
	for _, f := range tables {
		start := time.Now()
		depend.NewMatrixParallel(f, cfg.Measure, 1)
		out = append(out, millis(time.Since(start)))
	}
	return out
}
