package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/randx"
)

// testTable builds a small deterministic table (8 numeric columns, 60 rows)
// and a selection with a planted mean shift, parameterized by seed so
// distinct seeds produce distinct fingerprints.
func testTable(t testing.TB, seed uint64) (*frame.Frame, *frame.Bitmap) {
	t.Helper()
	const rows = 60
	rng := randx.New(seed)
	sel := frame.NewBitmap(rows)
	for i := 0; i < rows/3; i++ {
		sel.Set(i)
	}
	cols := make([]*frame.Column, 8)
	for c := range cols {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = rng.NormFloat64()
			if sel.Get(i) && c < 4 {
				vals[i] += 2.5 // planted shift on the first four columns
			}
		}
		cols[c] = frame.NewNumericColumn(fmt.Sprintf("c%d", c), vals)
	}
	f, err := frame.New(fmt.Sprintf("t%d", seed), cols)
	if err != nil {
		t.Fatal(err)
	}
	return f, sel
}

func testConfig(shards int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Shards = shards
	cfg.Parallelism = 1
	return cfg
}

func mustRouter(t testing.TB, cfg core.Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAssignStableAndInRange pins the consistent-hashing contract: the
// assignment is a pure function of (fingerprint, shard count) — identical
// across calls and across router instances — and always lands in range.
func TestAssignStableAndInRange(t *testing.T) {
	r1 := mustRouter(t, testConfig(4))
	r2 := mustRouter(t, testConfig(4))
	rng := randx.New(1)
	for i := 0; i < 1000; i++ {
		fp := rng.Uint64()
		s := Assign(fp, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("Assign(%#x, 4) = %d out of range", fp, s)
		}
		if s != Assign(fp, 4) || s != r1.ShardFor(fp) || s != r2.ShardFor(fp) {
			t.Fatalf("assignment of %#x not stable", fp)
		}
	}
	if Assign(123, 1) != 0 {
		t.Fatal("single shard must receive everything")
	}
}

// TestAssignBalanced sanity-checks the rendezvous distribution: over many
// random fingerprints every shard gets a roughly proportional share.
func TestAssignBalanced(t *testing.T) {
	const n, keys = 8, 8000
	counts := make([]int, n)
	rng := randx.New(7)
	for i := 0; i < keys; i++ {
		counts[Assign(rng.Uint64(), n)]++
	}
	for i, c := range counts {
		if c < keys/n/2 || c > keys/n*2 {
			t.Errorf("shard %d holds %d of %d keys (want ≈ %d)", i, c, keys, keys/n)
		}
	}
}

// TestAssignMinimalRehash pins the property that makes the hashing
// "consistent": growing from N to N+1 shards moves only the keys won by the
// new shard — every moved key moves TO shard N, and the moved fraction is
// close to 1/(N+1).
func TestAssignMinimalRehash(t *testing.T) {
	const keys = 4000
	for _, n := range []int{1, 2, 4, 8} {
		moved := 0
		rng := randx.New(uint64(n))
		for i := 0; i < keys; i++ {
			fp := rng.Uint64()
			before, after := Assign(fp, n), Assign(fp, n+1)
			if before != after {
				moved++
				if after != n {
					t.Fatalf("n=%d: key %#x moved %d→%d, not to the new shard %d", n, fp, before, after, n)
				}
			}
		}
		want := keys / (n + 1)
		if moved < want/2 || moved > want*2 {
			t.Errorf("n=%d→%d: %d of %d keys moved, want ≈ %d", n, n+1, moved, keys, want)
		}
	}
}

// TestShardCountExceedsTables routes correctly when there are far more
// shards than tables: only owning shards see traffic, idle shards stay cold,
// and the totals still reconcile.
func TestShardCountExceedsTables(t *testing.T) {
	r := mustRouter(t, testConfig(8))
	f1, s1 := testTable(t, 1)
	f2, s2 := testTable(t, 2)
	for i := 0; i < 2; i++ {
		if _, err := r.Characterize(f1, s1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Characterize(f2, s2); err != nil {
			t.Fatal(err)
		}
	}
	owners := map[int]bool{r.ShardFor(f1.Fingerprint()): true, r.ShardFor(f2.Fingerprint()): true}
	stats := r.Stats()
	var total int64
	for _, sh := range stats.Shards {
		total += sh.Requests
		if !owners[sh.Shard] && (sh.Requests != 0 || sh.Prepared.Entries != 0) {
			t.Errorf("idle shard %d saw traffic: %+v", sh.Shard, sh)
		}
	}
	if total != 4 {
		t.Errorf("total admitted requests = %d, want 4", total)
	}
	if stats.Reports.Hits != 2 || stats.Reports.Misses != 2 {
		t.Errorf("shared reports tier = %+v, want 2 hits / 2 misses", stats.Reports)
	}
}

// TestReloadLandsOnSameShard pins content addressing end to end: a reloaded
// identical table (a distinct object with the same bytes) routes to the same
// shard and hits that shard's prepared cache.
func TestReloadLandsOnSameShard(t *testing.T) {
	r := mustRouter(t, testConfig(4))
	f1, s1 := testTable(t, 9)
	if _, err := r.Characterize(f1, s1); err != nil {
		t.Fatal(err)
	}

	f2, s2 := testTable(t, 9) // rebuilt from scratch, same content
	if f1 == f2 {
		t.Fatal("test bug: expected distinct objects")
	}
	if f1.Fingerprint() != f2.Fingerprint() {
		t.Fatal("identical content fingerprints differently")
	}
	owner := r.ShardFor(f1.Fingerprint())
	if got := r.ShardFor(f2.Fingerprint()); got != owner {
		t.Fatalf("reloaded table routed to shard %d, original to %d", got, owner)
	}
	// Force the pipeline (skip the report memo) to prove the prepared
	// structures were found on the owning shard.
	rep, err := r.CharacterizeOpts(f2, s2, core.Options{SkipReportCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit {
		t.Error("reloaded table missed the owning shard's prepared cache")
	}
	if got := r.Stats().Shards[owner].Prepared; got.Hits != 1 || got.Misses != 1 {
		t.Errorf("owning shard prepared tier = %+v, want 1 hit / 1 miss", got)
	}
}

// TestSharedCacheAcrossRouters pins the cross-engine property: two routers
// (think: two sessions) attached to one report cache serve each other's
// repeat queries, and concurrent identical requests across them compute
// exactly once.
func TestSharedCacheAcrossRouters(t *testing.T) {
	rc := core.NewReportCache(0, 0)
	ra, err := NewWithParams(testConfig(2), rc, Params{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewWithParams(testConfig(4), rc, Params{}) // different shard count on purpose
	if err != nil {
		t.Fatal(err)
	}
	f, sel := testTable(t, 3)
	cold, err := ra.Characterize(f, sel)
	if err != nil {
		t.Fatal(err)
	}
	if cold.ReportCacheHit {
		t.Fatal("first query reported a cache hit")
	}
	warm, err := rb.Characterize(f, sel)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.ReportCacheHit {
		t.Fatal("repeat query on the second router missed the shared cache")
	}
	if snap := rc.Snapshot(); snap.Hits != 1 || snap.Misses != 1 {
		t.Fatalf("shared cache = %+v, want 1 hit / 1 miss", snap)
	}

	// A fresh key requested concurrently from both routers computes once.
	f2, sel2 := testTable(t, 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		r := ra
		if i%2 == 1 {
			r = rb
		}
		wg.Add(1)
		go func(r *Router) {
			defer wg.Done()
			if _, err := r.Characterize(f2, sel2); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	snap := rc.Snapshot()
	if computations := snap.Misses - snap.Deduped; computations != 2 {
		t.Errorf("distinct keys computed %d times, want 2 (snapshot %+v)", computations, snap)
	}
	if snap.Hits+snap.Misses != 10 {
		t.Errorf("requests = %d, want 10 (snapshot %+v)", snap.Hits+snap.Misses, snap)
	}
}

// TestSaturationShedsLoad pins the admission queue: once a shard's running +
// waiting capacity is exhausted the router rejects immediately with
// ErrSaturated, counts the rejection, and recovers once capacity frees up.
// Other shards are unaffected — the point of per-shard queues.
func TestSaturationShedsLoad(t *testing.T) {
	cfg := testConfig(4)
	r, err := NewWithParams(cfg, nil, Params{Concurrency: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, sel := testTable(t, 5)
	owner := r.ShardFor(f.Fingerprint())
	// Warm the shared cache with one report before pinning the shard down.
	if _, err := r.Characterize(f, sel); err != nil {
		t.Fatal(err)
	}
	release := r.fillShard(owner)

	// A cached repeat bypasses admission entirely: served even while the
	// shard is saturated.
	rep, err := r.Characterize(f, sel)
	if err != nil || !rep.ReportCacheHit {
		t.Fatalf("cached repeat on a saturated shard: err=%v, hit=%v", err, rep != nil && rep.ReportCacheHit)
	}
	// An uncached request (fresh options hash) is shed.
	uncached := core.Options{ExcludeColumns: []string{"c0"}}
	if _, err := r.CharacterizeOpts(f, sel, uncached); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated shard returned %v, want ErrSaturated", err)
	}
	if got := r.Stats().Shards[owner].Rejected; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	// A table owned by a different shard is admitted while this one is full.
	for seed := uint64(6); ; seed++ {
		f2, sel2 := testTable(t, seed)
		if r.ShardFor(f2.Fingerprint()) == owner {
			continue
		}
		if _, err := r.Characterize(f2, sel2); err != nil {
			t.Fatalf("healthy shard rejected while shard %d saturated: %v", owner, err)
		}
		break
	}

	release()
	if _, err := r.CharacterizeOpts(f, sel, uncached); err != nil {
		t.Fatalf("shard did not recover after saturation: %v", err)
	}

	// Degrade arm: with ApproxUnderPressure the same full shard answers the
	// uncached request from a sample instead of shedding, byte-identical
	// (cache flags and timings aside) to an explicit approximate request
	// at the default cap and seed 0 on an unsaturated router.
	cfg.ApproxUnderPressure = true
	dr, err := NewWithParams(cfg, nil, Params{Concurrency: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	owner = dr.ShardFor(f.Fingerprint())
	release = dr.fillShard(owner)
	defer release()
	degraded, err := dr.CharacterizeOpts(f, sel, uncached)
	if err != nil || degraded.Approximate == nil {
		t.Fatalf("degraded request: err=%v, approximate=%v", err, degraded != nil && degraded.Approximate != nil)
	}
	explicit := uncached
	explicit.ApproxRows, explicit.ApproxSeed = cfg.EffectiveApproxRows(), 0
	want, err := mustRouter(t, testConfig(4)).CharacterizeOpts(f, sel, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalReport(degraded), canonicalReport(want)) {
		t.Error("degraded report differs from the explicit approximate request")
	}
	if st := dr.Stats().Shards[owner]; st.Rejected != 0 || st.ApproxServed != 1 {
		t.Errorf("degrade stats: rejected=%d approxServed=%d, want 0 and 1", st.Rejected, st.ApproxServed)
	}
}

// canonicalReport encodes a report with its timings and cache flags
// zeroed, so reports served along different paths can be byte-compared.
func canonicalReport(rep *core.Report) []byte {
	c := *rep
	c.Timings = core.Timings{}
	c.CacheHit, c.ReportCacheHit = false, false
	return core.EncodeReport(&c)
}

// TestPreparedBudgetPartitioned pins the memory contract: the configured
// cache bounds cover the whole router, so each shard engine's prepared tier
// gets a 1/n slice (never below one entry), while the shared report cache
// keeps the full budget.
func TestPreparedBudgetPartitioned(t *testing.T) {
	cfg := testConfig(4)
	cfg.CacheEntries = 8
	cfg.CacheBytes = 4 << 20
	r := mustRouter(t, cfg)
	for i := 0; i < r.NumShards(); i++ {
		got := r.Engine(i).Config()
		if got.CacheEntries != 2 || got.CacheBytes != 1<<20 {
			t.Errorf("shard %d prepared budget = %d entries / %d bytes, want 2 / %d",
				i, got.CacheEntries, got.CacheBytes, 1<<20)
		}
	}
	// More shards than entries still leaves every shard able to cache one
	// table.
	tiny := testConfig(4)
	tiny.CacheEntries = 2
	r = mustRouter(t, tiny)
	for i := 0; i < r.NumShards(); i++ {
		if got := r.Engine(i).Config().CacheEntries; got != 1 {
			t.Errorf("shard %d entry bound = %d, want the floor of 1", i, got)
		}
	}
}

// TestStatsTotals pins the aggregation used by Session.CacheStats: prepared
// tiers sum across shards and the reports tier is the shared cache.
func TestStatsTotals(t *testing.T) {
	r := mustRouter(t, testConfig(3))
	for seed := uint64(20); seed < 24; seed++ {
		f, sel := testTable(t, seed)
		for i := 0; i < 2; i++ {
			if _, err := r.Characterize(f, sel); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := r.Stats()
	totals := stats.Totals()
	if totals.Reports != stats.Reports {
		t.Error("Totals altered the shared reports tier")
	}
	var hits, misses, entries int64
	for _, sh := range stats.Shards {
		hits += sh.Prepared.Hits
		misses += sh.Prepared.Misses
		entries += int64(sh.Prepared.Entries)
	}
	if totals.Prepared.Hits != hits || totals.Prepared.Misses != misses || int64(totals.Prepared.Entries) != entries {
		t.Errorf("Totals.Prepared = %+v, want sums (%d hits, %d misses, %d entries)", totals.Prepared, hits, misses, entries)
	}
	if totals.Prepared.Misses != 4 {
		t.Errorf("prepared misses = %d, want one per distinct table", totals.Prepared.Misses)
	}
	if totals.Reports.Hits != 4 || totals.Reports.Misses != 4 {
		t.Errorf("reports tier = %+v, want 4 hits / 4 misses", totals.Reports)
	}
}

// TestRankOrdersAllShards pins the failover ranking: Rank is a permutation
// of the shard indices, its head agrees with Assign, and removing the head
// promotes exactly the runner-up — the shard the table would rendezvous to
// if the owner left the topology.
func TestRankOrdersAllShards(t *testing.T) {
	rng := randx.New(3)
	for i := 0; i < 200; i++ {
		fp := rng.Uint64()
		order := Rank(fp, 5)
		if len(order) != 5 {
			t.Fatalf("Rank returned %d entries, want 5", len(order))
		}
		seen := make(map[int]bool)
		for _, s := range order {
			if s < 0 || s >= 5 || seen[s] {
				t.Fatalf("Rank(%#x, 5) = %v is not a permutation", fp, order)
			}
			seen[s] = true
		}
		if order[0] != Assign(fp, 5) {
			t.Fatalf("Rank head %d disagrees with Assign %d", order[0], Assign(fp, 5))
		}
	}
	if Rank(1, 0) != nil {
		t.Error("Rank with zero shards should be nil")
	}
}

// TestSaturatedRetryAfterHint pins the backoff satellite: a shed request
// carries a positive Retry-After estimate (queue occupancy over observed
// service rate), the same figure ShardStats reports while the shard is
// pinned, and the hint returns to zero once the queue drains.
func TestSaturatedRetryAfterHint(t *testing.T) {
	r, err := NewWithParams(testConfig(2), nil, Params{Concurrency: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, sel := testTable(t, 31)
	owner := r.ShardFor(f.Fingerprint())
	// One completed characterization seeds the observed service rate.
	if _, err := r.Characterize(f, sel); err != nil {
		t.Fatal(err)
	}
	release := r.fillShard(owner)
	uncached := core.Options{ExcludeColumns: []string{"c1"}}
	_, err = r.CharacterizeOpts(f, sel, uncached)
	var sat *SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("saturated shard returned %v, want *SaturatedError", err)
	}
	if sat.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", sat.RetryAfter)
	}
	if got := r.Stats().Shards[owner].RetryAfterMillis; got < 0 {
		t.Errorf("pinned shard advertises RetryAfterMillis = %d, want >= 0", got)
	}
	release()
	if got := r.Stats().Shards[owner].RetryAfterMillis; got != 0 {
		t.Errorf("idle shard advertises RetryAfterMillis = %d, want 0", got)
	}
}

// TestSnapshotKindAndHealth pins the new backend metadata on local
// topologies: every shard reports kind "local", healthy, and no shipped
// tables.
func TestSnapshotKindAndHealth(t *testing.T) {
	r := mustRouter(t, testConfig(3))
	for _, sh := range r.Stats().Shards {
		if sh.Kind != KindLocal || !sh.Healthy || sh.TablesShipped != 0 || sh.Addr != "" {
			t.Errorf("local shard snapshot = %+v", sh)
		}
	}
	if err := r.Close(); err != nil {
		t.Errorf("closing a local router: %v", err)
	}
}

// TestNewWithBackendsValidation covers the explicit-topology constructor.
func TestNewWithBackendsValidation(t *testing.T) {
	if _, err := NewWithBackends(testConfig(1), nil, nil); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := NewWithBackends(testConfig(1), nil, []Backend{nil}); err == nil {
		t.Error("nil backend accepted")
	}
	b, err := NewEngineBackend(testConfig(1), nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	bad := testConfig(1)
	bad.MaxDim = 0
	if _, err := NewWithBackends(bad, nil, []Backend{b}); err == nil {
		t.Error("invalid config accepted")
	}
	r, err := NewWithBackends(testConfig(1), nil, []Backend{b})
	if err != nil {
		t.Fatal(err)
	}
	f, sel := testTable(t, 40)
	if _, err := r.Characterize(f, sel); err != nil {
		t.Fatal(err)
	}
	if r.Engine(0) != b.Engine() {
		t.Error("Engine(0) does not expose the backend engine")
	}
}

// TestRouterValidation covers construction errors: invalid engine config,
// negative shard count, negative admission params, and nil-frame routing.
func TestRouterValidation(t *testing.T) {
	bad := testConfig(1)
	bad.MaxDim = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid engine config accepted")
	}
	neg := testConfig(0)
	neg.Shards = -1
	if _, err := New(neg); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := NewWithParams(testConfig(1), nil, Params{Concurrency: -1}); err == nil {
		t.Error("negative concurrency accepted")
	}
	if _, err := NewWithParams(testConfig(1), nil, Params{QueueDepth: -1}); err == nil {
		t.Error("negative queue depth accepted")
	}
	r := mustRouter(t, testConfig(2))
	if _, err := r.Characterize(nil, frame.NewBitmap(1)); err == nil {
		t.Error("nil frame accepted")
	}
}

// TestServiceCountersExposed pins the counters /api/stats reports:
// executed (non-cached) characterizations and their observed mean
// service time surface through Stats, and cache hits do not inflate them.
func TestServiceCountersExposed(t *testing.T) {
	r := mustRouter(t, testConfig(1))
	f, sel := testTable(t, 41)
	// Two identical requests: one executes, one is a report-cache hit.
	for i := 0; i < 2; i++ {
		if _, err := r.Characterize(f, sel); err != nil {
			t.Fatal(err)
		}
	}
	// A cache-bypassing request executes again.
	if _, err := r.CharacterizeOpts(f, sel, core.Options{SkipReportCache: true}); err != nil {
		t.Fatal(err)
	}
	sh := r.Stats().Shards[0]
	if sh.Completed != 2 {
		t.Errorf("completed = %d, want 2 (cache hits must not count)", sh.Completed)
	}
	if sh.MeanServiceMillis <= 0 {
		t.Errorf("meanServiceMillis = %v, want > 0", sh.MeanServiceMillis)
	}
}
