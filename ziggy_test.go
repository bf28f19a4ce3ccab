package ziggy_test

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	ziggy "repro"
	"repro/internal/frame"
	"repro/internal/remote"
	"repro/internal/shard"
)

func newSession(t *testing.T) *ziggy.Session {
	t.Helper()
	s, err := ziggy.New(ziggy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// localSession opens a session over k in-process engine backends sharing
// one report cache with the session (rc, or a fresh one when nil): how
// several local engines are expressed.
func localSession(t testing.TB, cfg ziggy.Config, rc *ziggy.ReportCache, k int) *ziggy.Session {
	t.Helper()
	if rc == nil {
		rc = ziggy.NewReportCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	backends := make([]ziggy.Backend, k)
	for i := range backends {
		b, err := ziggy.NewEngineBackend(cfg, rc)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = b
	}
	s, err := ziggy.New(cfg, ziggy.WithSharedCache(rc), ziggy.WithBackends(backends...))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionLifecycle(t *testing.T) {
	s := newSession(t)
	if err := s.Register(ziggy.BoxOfficeData(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.Tables(); !reflect.DeepEqual(got, []string{"boxoffice"}) {
		t.Fatalf("Tables = %v", got)
	}
	if _, ok := s.Table("boxoffice"); !ok {
		t.Fatal("Table lookup failed")
	}
	if s.Engine() == nil {
		t.Fatal("Engine nil")
	}
}

func TestSessionQuery(t *testing.T) {
	s := newSession(t)
	if err := s.Register(ziggy.BoxOfficeData(1)); err != nil {
		t.Fatal(err)
	}
	rows, mask, err := s.Query("SELECT gross_musd FROM boxoffice WHERE genre = 'action' LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if rows.NumRows() > 5 || rows.NumCols() != 1 {
		t.Fatalf("rows shape %d×%d", rows.NumRows(), rows.NumCols())
	}
	if mask.Count() == 0 {
		t.Fatal("empty selection")
	}
}

func TestEndToEndCharacterization(t *testing.T) {
	s := newSession(t)
	if err := s.Register(ziggy.BoxOfficeData(7)); err != nil {
		t.Fatal(err)
	}
	table, ok := s.Table("boxoffice")
	if !ok {
		t.Fatal("table missing")
	}
	q75, err := ziggy.Quantile(table, "gross_musd", 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if q75 <= 0 {
		t.Fatalf("q75 = %v", q75)
	}
	rep, err := s.Characterize("SELECT * FROM boxoffice WHERE gross_musd >= 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Views) == 0 {
		t.Fatal("no views")
	}
	if rep.SQL == "" || rep.Base == nil || rep.Mask == nil {
		t.Fatal("QueryReport incomplete")
	}
	if rows, err := rep.Rows(); err != nil || rows.NumRows() != rep.Mask.Count() {
		t.Fatalf("QueryReport.Rows: %v", err)
	}
	// The scale block must surface: budget/opening/theaters correlate with
	// gross.
	var found bool
	for _, v := range rep.Views {
		for _, c := range v.Columns {
			if c == "budget_musd" || c == "opening_weekend_musd" || c == "theaters_opening" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("scale block missing from views: %v", rep.Views)
	}
}

func TestCharacterizeWithExclusions(t *testing.T) {
	s := newSession(t)
	if err := s.Register(ziggy.USCrimeData(3)); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM uscrime WHERE crime_violent_rate >= 1200 AND population > 20000"
	cols, err := ziggy.PredicateColumns(sql)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(cols)
	if !reflect.DeepEqual(cols, []string{"crime_violent_rate", "population"}) {
		t.Fatalf("PredicateColumns = %v", cols)
	}
	rep, err := s.CharacterizeOpts(sql, ziggy.Options{ExcludeColumns: cols})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Views {
		for _, c := range v.Columns {
			if c == "crime_violent_rate" || c == "population" {
				t.Errorf("excluded predicate column %q in view", c)
			}
		}
	}
}

func TestPredicateColumnsAllForms(t *testing.T) {
	sql := "SELECT * FROM t WHERE a > 1 AND b IN ('x') OR NOT (c BETWEEN 1 AND 2) AND d LIKE 'z%' AND e IS NULL"
	cols, err := ziggy.PredicateColumns(sql)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(cols)
	if !reflect.DeepEqual(cols, []string{"a", "b", "c", "d", "e"}) {
		t.Fatalf("PredicateColumns = %v", cols)
	}
	// No WHERE → empty.
	cols, err = ziggy.PredicateColumns("SELECT * FROM t")
	if err != nil || cols != nil {
		t.Fatalf("no-WHERE PredicateColumns = %v, %v", cols, err)
	}
	if _, err := ziggy.PredicateColumns("not sql"); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

func TestCharacterizeErrors(t *testing.T) {
	s := newSession(t)
	if err := s.Register(ziggy.BoxOfficeData(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Characterize("SELECT * FROM nope"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := s.Characterize("SELECT * FROM boxoffice WHERE gross_musd > 1e12"); err == nil {
		t.Fatal("empty selection should error (too few rows inside)")
	}
	if _, err := s.Characterize("garbage"); err == nil {
		t.Fatal("unparsable SQL accepted")
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "movies.csv")
	f := ziggy.BoxOfficeData(5)
	if err := ziggy.WriteCSV(path, f); err != nil {
		t.Fatal(err)
	}
	s := newSession(t)
	back, err := s.RegisterCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != f.NumRows() || back.NumCols() != f.NumCols() {
		t.Fatalf("round-trip shape %d×%d", back.NumRows(), back.NumCols())
	}
	if got := s.Tables(); !reflect.DeepEqual(got, []string{"movies"}) {
		t.Fatalf("Tables = %v", got)
	}
	rep, err := s.Characterize("SELECT * FROM movies WHERE gross_musd >= 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Views) == 0 {
		t.Fatal("no views on CSV-loaded data")
	}
}

func TestRegisterCSVMissingFile(t *testing.T) {
	s := newSession(t)
	if _, err := s.RegisterCSV(filepath.Join(t.TempDir(), "nope.csv")); err != nil {
		if !strings.Contains(err.Error(), "csvio") {
			t.Fatalf("unexpected error text: %v", err)
		}
		return
	}
	t.Fatal("missing CSV accepted")
}

func TestNewSessionValidatesConfig(t *testing.T) {
	cfg := ziggy.DefaultConfig()
	cfg.MaxDim = 0
	if _, err := ziggy.New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestSessionCacheStats drives the memoized serving path through the
// public API: a repeated identical query is a report-cache hit, the
// counters reconcile, and the cache bounds flow through Config.
func TestSessionCacheStats(t *testing.T) {
	cfg := ziggy.DefaultConfig()
	cfg.CacheEntries = 4
	session, err := ziggy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := session.Register(ziggy.BoxOfficeData(7)); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT * FROM boxoffice WHERE gross_musd >= 120"
	first, err := session.Characterize(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.ReportCacheHit {
		t.Error("first query reported a report-cache hit")
	}
	second, err := session.Characterize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.ReportCacheHit || !second.CacheHit {
		t.Error("identical repeat not served from the report cache")
	}
	if len(second.Views) != len(first.Views) {
		t.Fatalf("cached report has %d views, want %d", len(second.Views), len(first.Views))
	}
	for i := range second.Views {
		if second.Views[i].Score != first.Views[i].Score ||
			second.Views[i].Explanation != first.Views[i].Explanation {
			t.Fatalf("cached view %d differs from the computed one", i)
		}
	}

	stats := session.CacheStats()
	if stats.Reports.Hits != 1 || stats.Reports.Misses != 1 {
		t.Errorf("reports tier = %+v, want 1 hit / 1 miss", stats.Reports)
	}
	for name, tier := range map[string]ziggy.CacheSnapshot{
		"prepared": stats.Prepared, "reports": stats.Reports,
	} {
		if tier.Hits+tier.Misses != tier.Requests() {
			t.Errorf("%s tier does not reconcile: %+v", name, tier)
		}
	}
	if stats.Reports.Entries != 1 || stats.Prepared.Entries != 1 {
		t.Errorf("unexpected occupancy: %+v", stats)
	}
}

// reportFingerprint serializes everything observable about a report except
// wall-clock timings and the cache flags, with floats rendered bit-for-bit,
// so reports can be byte-compared across serving topologies.
func reportFingerprint(rep *ziggy.Report) string {
	bits := func(x float64) string { return strconv.FormatUint(math.Float64bits(x), 16) }
	var b strings.Builder
	fmt.Fprintf(&b, "sel=%d total=%d warnings=%q\n", rep.SelectedRows, rep.TotalRows, rep.Warnings)
	if a := rep.Approximate; a != nil {
		fmt.Fprintf(&b, "approx sample=%d cap=%d seed=%x in=%d out=%d se=%s\n",
			a.SampleRows, a.CapRows, a.Seed, a.InsideRows, a.OutsideRows, bits(a.SEInflation))
	}
	for _, v := range rep.Views {
		fmt.Fprintf(&b, "view %v score=%s tight=%s p=%s sig=%t expl=%q\n",
			v.Columns, bits(v.Score), bits(v.Tightness), bits(v.PValue), v.Significant, v.Explanation)
		for _, c := range v.Components {
			fmt.Fprintf(&b, "  comp %v %v raw=%s norm=%s in=%s out=%s stat=%s df=%s p=%s detail=%q\n",
				c.Kind, c.Columns, bits(c.Raw), bits(c.Norm), bits(c.Inside), bits(c.Outside),
				bits(c.Test.Stat), bits(c.Test.DF), bits(c.Test.P), c.Detail)
		}
	}
	return b.String()
}

// shardedFixtureTables returns two distinct tables so multi-shard routers
// actually split ownership: the demo box-office table and a second copy
// with different content registered under another name.
func shardedFixtureTables(t *testing.T) []*ziggy.Frame {
	t.Helper()
	other, err := frame.New("boxoffice2", ziggy.BoxOfficeData(2).Columns())
	if err != nil {
		t.Fatal(err)
	}
	return []*ziggy.Frame{ziggy.BoxOfficeData(1), other}
}

// TestShardedDeterminism is the acceptance test of the sharded serving
// layer: (1) every report is byte-identical across k ∈ {1, 2, 4} local
// backends; (2) a repeat query from a different session attached to the same
// shared report cache is served from that cache — the hit counter
// increments and the router-level lookup is orders of magnitude faster
// than the cold run; (3) concurrent identical requests landing on
// different sessions compute exactly once.
func TestShardedDeterminism(t *testing.T) {
	queries := []string{
		"SELECT * FROM boxoffice WHERE gross_musd >= 100",
		"SELECT * FROM boxoffice WHERE critic_score >= 70",
		"SELECT * FROM boxoffice2 WHERE budget_musd >= 60",
	}

	backendCounts := []int{1, 2, 4}
	fingerprints := make(map[string][]string) // query → fingerprint per backend count
	for _, k := range backendCounts {
		session := localSession(t, ziggy.DefaultConfig(), nil, k)
		for _, f := range shardedFixtureTables(t) {
			if err := session.Register(f); err != nil {
				t.Fatal(err)
			}
		}
		if session.Shards() != k {
			t.Fatalf("session runs %d backends, want %d", session.Shards(), k)
		}
		for _, q := range queries {
			rep, err := session.Characterize(q)
			if err != nil {
				t.Fatalf("k=%d %q: %v", k, q, err)
			}
			fingerprints[q] = append(fingerprints[q], reportFingerprint(rep.Report))
		}
	}
	for _, q := range queries {
		for i := 1; i < len(backendCounts); i++ {
			if fingerprints[q][i] != fingerprints[q][0] {
				t.Errorf("%q: report differs between k=%d and k=%d\n--- k=%d\n%s\n--- k=%d\n%s",
					q, backendCounts[0], backendCounts[i],
					backendCounts[0], fingerprints[q][0], backendCounts[i], fingerprints[q][i])
			}
		}
	}

	// (2) Cross-session shared cache: two sessions with different backend
	// counts attached to one cache; a query answered by the first is a ~µs
	// lookup for the second.
	rc := ziggy.NewReportCache(0, 0)
	newShared := func(k int) *ziggy.Session {
		s := localSession(t, ziggy.DefaultConfig(), rc, k)
		for _, f := range shardedFixtureTables(t) {
			if err := s.Register(f); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	sa, sb := newShared(2), newShared(4)

	coldStart := time.Now()
	cold, err := sa.Characterize(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	coldDur := time.Since(coldStart)
	if cold.ReportCacheHit {
		t.Fatal("first query reported a report-cache hit")
	}
	warm, err := sb.Characterize(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !warm.ReportCacheHit {
		t.Fatal("repeat query on the second session missed the shared cache")
	}
	if got, want := reportFingerprint(warm.Report), reportFingerprint(cold.Report); got != want {
		t.Error("shared-cache report differs from the computed one")
	}
	if snap := rc.Snapshot(); snap.Hits != 1 || snap.Misses != 1 {
		t.Fatalf("shared cache = %+v, want 1 hit / 1 miss", snap)
	}
	// Router-level repeat (no SQL layer): a pure shared-cache lookup. The
	// cache-speed property is pinned by the counters — the lookup must not
	// add a miss (no recomputation happened) — and the wall times are
	// logged rather than asserted, since timing ratios flake on loaded CI
	// runners; in practice the lookup is ~µs against a ~ms cold run.
	preLookup := rc.Snapshot()
	lookupStart := time.Now()
	rep, err := sb.Router().Characterize(cold.Base, cold.Mask)
	lookupDur := time.Since(lookupStart)
	if err != nil || !rep.ReportCacheHit {
		t.Fatalf("router-level repeat not served from cache (err=%v)", err)
	}
	if postLookup := rc.Snapshot(); postLookup.Misses != preLookup.Misses || postLookup.Hits != preLookup.Hits+1 {
		t.Errorf("router-level repeat recomputed instead of hitting: before %+v, after %+v", preLookup, postLookup)
	}
	t.Logf("cold %v, shared-cache lookup %v", coldDur, lookupDur)

	// (3) Concurrent identical requests across sessions compute once.
	before := rc.Snapshot()
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		s := sa
		if i%2 == 1 {
			s = sb
		}
		wg.Add(1)
		go func(s *ziggy.Session) {
			defer wg.Done()
			if _, err := s.Characterize(queries[2]); err != nil {
				t.Error(err)
			}
		}(s)
	}
	wg.Wait()
	after := rc.Snapshot()
	if computations := (after.Misses - after.Deduped) - (before.Misses - before.Deduped); computations != 1 {
		t.Errorf("concurrent identical requests executed %d computations, want 1 (before %+v, after %+v)",
			computations, before, after)
	}
	if requests := (after.Hits + after.Misses) - (before.Hits + before.Misses); requests != clients {
		t.Errorf("shared cache saw %d requests, want %d", requests, clients)
	}
}

// TestApproximateDeterminism sweeps the sample-based approximate path
// across the full serving matrix: for every (seed, cap) configuration the
// report — including its provenance block — is byte-identical across
// Parallelism ∈ {1, 2, NumCPU} × k ∈ {1, 2, 4} local backends, and distinct
// configurations produce distinct reports. Approximation must be a pure
// function of (frame, selection, seed, cap), never of the serving topology.
func TestApproximateDeterminism(t *testing.T) {
	queries := []string{
		"SELECT * FROM boxoffice WHERE gross_musd >= 100",
		"SELECT * FROM boxoffice2 WHERE budget_musd >= 60",
	}
	configs := []ziggy.Options{
		{ApproxRows: 200, ApproxSeed: 1},
		{ApproxRows: 200, ApproxSeed: 42},
		{ApproxRows: 450, ApproxSeed: 1},
	}

	type key struct {
		query  string
		config int
	}
	fingerprints := map[key][]string{}
	for _, parallelism := range []int{1, 2, runtime.NumCPU()} {
		for _, k := range []int{1, 2, 4} {
			cfg := ziggy.DefaultConfig()
			cfg.Parallelism = parallelism
			session := localSession(t, cfg, nil, k)
			for _, f := range shardedFixtureTables(t) {
				if err := session.Register(f); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range queries {
				for ci, opts := range configs {
					rep, err := session.CharacterizeOpts(q, opts)
					if err != nil {
						t.Fatalf("p=%d k=%d %q config %d: %v", parallelism, k, q, ci, err)
					}
					a := rep.Approximate
					if a == nil {
						t.Fatalf("p=%d k=%d %q: approximate request served without provenance", parallelism, k, q)
					}
					if a.CapRows != opts.ApproxRows || a.Seed != opts.ApproxSeed {
						t.Fatalf("provenance %+v does not echo config %+v", a, opts)
					}
					if a.SampleRows > a.CapRows || a.InsideRows+a.OutsideRows != a.SampleRows {
						t.Fatalf("provenance does not reconcile: %+v", a)
					}
					if a.SEInflation < 1 {
						t.Fatalf("SE inflation %v < 1", a.SEInflation)
					}
					fingerprints[key{q, ci}] = append(fingerprints[key{q, ci}], reportFingerprint(rep.Report))
				}
			}
		}
	}
	for k, fps := range fingerprints {
		for i := 1; i < len(fps); i++ {
			if fps[i] != fps[0] {
				t.Errorf("%q config %d: approximate report differs across topologies\n--- first\n%s\n--- divergent\n%s",
					k.query, k.config, fps[0], fps[i])
			}
		}
	}
	// Distinct (seed, cap) configurations must not collide: the provenance
	// block alone separates them even if the sampled rows coincided.
	for _, q := range queries {
		for ci := range configs {
			for cj := ci + 1; cj < len(configs); cj++ {
				if fingerprints[key{q, ci}][0] == fingerprints[key{q, cj}][0] {
					t.Errorf("%q: configs %d and %d produced identical reports", q, ci, cj)
				}
			}
		}
	}
}

// TestApproximateTracksExact is the differential pin of approximation
// quality: at a generous sample cap (≥ 50% of the table) the approximate
// report must agree with the exact report on the direction of every effect
// they both surface — a sampled answer may lose precision but must not
// invert a conclusion.
func TestApproximateTracksExact(t *testing.T) {
	session := newSession(t)
	if err := session.Register(ziggy.BoxOfficeData(1)); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT * FROM boxoffice WHERE gross_musd >= 100"

	exact, err := session.Characterize(q)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := session.CharacterizeOpts(q, ziggy.Options{ApproxRows: 600, ApproxSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Approximate != nil || approx.Approximate == nil {
		t.Fatal("approximate provenance on the wrong report")
	}

	// Index effect directions by (view columns, component kind, component
	// columns); compare the sign of Raw wherever both reports surface the
	// same effect.
	type effectKey string
	directions := func(rep *ziggy.Report) map[effectKey]bool {
		dirs := map[effectKey]bool{}
		for _, v := range rep.Views {
			for _, c := range v.Components {
				if c.Raw == 0 || math.IsNaN(c.Raw) {
					continue
				}
				k := effectKey(fmt.Sprintf("%v|%d|%v", v.Columns, c.Kind, c.Columns))
				dirs[k] = c.Raw > 0
			}
		}
		return dirs
	}
	exactDirs, approxDirs := directions(exact.Report), directions(approx.Report)
	shared := 0
	for k, want := range exactDirs {
		got, ok := approxDirs[k]
		if !ok {
			continue
		}
		shared++
		if got != want {
			t.Errorf("effect %s: approximate direction %t, exact %t", k, got, want)
		}
	}
	if shared == 0 {
		t.Fatal("exact and approximate reports share no effects to compare")
	}
	t.Logf("compared %d shared effects (%d exact, %d approximate)", shared, len(exactDirs), len(approxDirs))
}

// TestSessionOverRemoteWorkers pins the public multi-process surface:
// a session built with WithPeers routes characterizations to worker
// processes, produces reports byte-identical to an in-process session,
// serves repeats from the workers' report caches, and reports the workers
// in its shard stats.
func TestSessionOverRemoteWorkers(t *testing.T) {
	workerRouter, err := shard.New(ziggy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(remote.NewWorker(workerRouter))
	t.Cleanup(ts.Close)

	local := newSession(t)
	rs, err := ziggy.New(ziggy.DefaultConfig(), ziggy.WithPeers(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*ziggy.Session{local, rs} {
		if err := s.Register(ziggy.BoxOfficeData(1)); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT * FROM boxoffice WHERE gross_musd >= 100"
	want, err := local.Characterize(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rs.Characterize(q)
	if err != nil {
		t.Fatal(err)
	}
	if reportFingerprint(got.Report) != reportFingerprint(want.Report) {
		t.Error("remote session report differs from the in-process one")
	}
	if rs.Engine() != nil {
		t.Error("Engine() over a remote shard 0 should be nil")
	}

	warm, err := rs.Characterize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.ReportCacheHit {
		t.Error("repeat query missed the worker's report cache")
	}
	stats := rs.ShardStats()
	if len(stats.Shards) != 1 || stats.Shards[0].Kind != "remote" || !stats.Shards[0].Healthy {
		t.Errorf("remote session shard stats = %+v", stats.Shards)
	}
	if stats.Shards[0].TablesShipped != 1 {
		t.Errorf("tables shipped = %d, want 1", stats.Shards[0].TablesShipped)
	}
	if tot := stats.Totals(); tot.Reports.Hits != 1 || tot.Reports.Misses != 1 {
		t.Errorf("totals reports tier = %+v, want 1 hit / 1 miss", tot.Reports)
	}
}

// rpcLog records the worker endpoints a front calls, in order, as the
// last path element; a non-200 status is appended in parentheses.
type rpcLog struct {
	mu    sync.Mutex
	calls []string
}

// serve wraps a worker handler so every request is logged.
func (l *rpcLog) serve(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		i := len(l.calls)
		l.calls = append(l.calls, path.Base(r.URL.Path))
		l.mu.Unlock()
		h.ServeHTTP(statusLogger{ResponseWriter: w, log: l, i: i}, r)
	})
}

// take returns the calls logged since the last take.
func (l *rpcLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	calls := l.calls
	l.calls = nil
	return calls
}

// statusLogger marks a non-200 status on its call before the reply is
// sent, so the log is complete by the time the front sees the reply.
type statusLogger struct {
	http.ResponseWriter
	log *rpcLog
	i   int
}

func (w statusLogger) WriteHeader(code int) {
	if code != http.StatusOK {
		w.log.mu.Lock()
		w.log.calls[w.i] += fmt.Sprintf("(%d)", code)
		w.log.mu.Unlock()
	}
	w.ResponseWriter.WriteHeader(code)
}

// TestOneRPCPerRemoteRequest pins the RPCs a front makes per request that
// its own report tier does not answer: one characterize, which the worker
// answers from its report cache when it can. A table ships only when the
// worker answers that it does not hold it, and a worker that never received
// a table still answers a repeat its report cache holds. An append sends
// nothing until the next read, which ships the grown version like any new
// one: the worker's caches key on content, so nothing needs invalidating.
func TestOneRPCPerRemoteRequest(t *testing.T) {
	cfg := ziggy.DefaultConfig()
	// Two workers on one report cache: the second has never received a
	// table, but holds every report the first computed.
	workerReports := ziggy.NewReportCache(cfg.CacheEntries, cfg.CacheBytes)
	var logs [2]rpcLog
	var workers [2]*remote.Worker
	var urls [2]string
	for i := range workers {
		router, err := shard.NewWithParams(cfg, workerReports, shard.Params{})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = remote.NewWorker(router)
		ts := httptest.NewServer(logs[i].serve(workers[i]))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	s, err := ziggy.New(cfg, ziggy.WithPeers(urls[0]))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	base := ziggy.BoxOfficeData(1)
	if err := s.Register(base); err != nil {
		t.Fatal(err)
	}
	const cold, fresh = "SELECT * FROM boxoffice WHERE gross_musd >= 100", "SELECT * FROM boxoffice WHERE gross_musd >= 150"
	grown, err := base.Append(ziggy.BoxOfficeData(2))
	if err != nil {
		t.Fatal(err)
	}
	ship := []string{"characterize(404)", "manifest", "chunks", "characterize"}
	for _, step := range []struct {
		name string
		op   func() error
		want []string
	}{
		{"cold table", func() error { _, err := s.Characterize(cold); return err }, ship},
		{"fresh query", func() error { _, err := s.Characterize(fresh); return err }, []string{"characterize"}},
		{"first repeat", func() error { _, err := s.Characterize(fresh); return err }, []string{"characterize"}},
		{"front-tier repeat", func() error { _, err := s.Characterize(fresh); return err }, nil},
		{"new table version", func() error {
			if err := s.Register(grown); err != nil {
				return err
			}
			_, err := s.Characterize(fresh)
			return err
		}, ship},
		{"append", func() error {
			if err := s.Append("boxoffice", ziggy.BoxOfficeData(3)); err != nil {
				return err
			}
			_, err := s.Characterize(fresh)
			return err
		}, ship},
	} {
		if err := step.op(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got := logs[0].take(); !reflect.DeepEqual(got, step.want) {
			t.Errorf("%s: RPCs %v, want %v", step.name, got, step.want)
		}
	}

	// A second front, on the worker that never received the table, asks a
	// repeat the shared report cache holds.
	s2, err := ziggy.New(cfg, ziggy.WithPeers(urls[1]))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	if err := s2.Register(base); err != nil {
		t.Fatal(err)
	}
	rep, err := s2.Characterize(cold)
	if err != nil {
		t.Fatal(err)
	}
	if got := logs[1].take(); !reflect.DeepEqual(got, []string{"characterize"}) {
		t.Errorf("second front's repeat: RPCs %v, want [characterize]", got)
	}
	if !rep.ReportCacheHit {
		t.Error("second front's repeat was not a report-cache hit")
	}
	if n := workers[1].NumTables(); n != 0 {
		t.Errorf("second worker holds %d tables, want 0", n)
	}
	if got := s2.ShardStats().Shards[0].TablesShipped; got != 0 {
		t.Errorf("second front shipped %d tables, want 0", got)
	}
}

// TestStatsCountEachReportCacheOnce pins the report tier's accounting when
// local backends share a cache the session does not hold: their traffic
// shows in CacheStats, and counts once however many backends share it.
func TestStatsCountEachReportCacheOnce(t *testing.T) {
	cfg := ziggy.DefaultConfig()
	cfg.Parallelism = 1
	for _, k := range []int{1, 2} {
		rc := ziggy.NewReportCache(cfg.CacheEntries, cfg.CacheBytes)
		backends := make([]ziggy.Backend, k)
		for i := range backends {
			b, err := ziggy.NewEngineBackend(cfg, rc)
			if err != nil {
				t.Fatal(err)
			}
			backends[i] = b
		}
		s, err := ziggy.New(cfg, ziggy.WithBackends(backends...))
		if err != nil {
			t.Fatal(err)
		}
		tables := shardedFixtureTables(t)
		for _, f := range tables {
			if err := s.Register(f); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := s.Characterize("SELECT * FROM " + f.Name() + " WHERE gross_musd >= 100"); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := rc.Snapshot()
		if want.Hits != 4 || want.Misses != 2 {
			t.Fatalf("k=%d: shared cache = %+v, want 4 hits / 2 misses", k, want)
		}
		if got := s.CacheStats().Reports; got.Hits != want.Hits || got.Misses != want.Misses {
			t.Errorf("k=%d: session reports tier = %d hits / %d misses, want the shared cache's %d / %d",
				k, got.Hits, got.Misses, want.Hits, want.Misses)
		}
	}
}
