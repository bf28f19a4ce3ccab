package shard_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/frame"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/synth"
)

// These tests pin the router's front tier: for a backend whose report
// cache lives in another process, the router's own cache answers the
// repeats that backend's cache answered once.

// callCounter wraps a backend and counts the cache probes and the
// characterize calls sent through it.
type callCounter struct {
	shard.Backend
	probes, calls atomic.Int64
}

func (c *callCounter) CachedReport(fp uint64, sel *frame.Bitmap, opts core.Options) (*core.Report, bool) {
	c.probes.Add(1)
	return c.Backend.CachedReport(fp, sel, opts)
}

func (c *callCounter) Characterize(f *frame.Frame, sel *frame.Bitmap, opts core.Options) (*core.Report, error) {
	c.calls.Add(1)
	return c.Backend.Characterize(f, sel, opts)
}

// frontRig is a front router over one worker served by an httptest server.
type frontRig struct {
	front   *shard.Router
	tier    *core.ReportCache // the front's report cache: its front tier
	backend *callCounter
	worker  *shard.Router // the worker's own router
}

func newFrontRig(t *testing.T, cfg core.Config, p shard.Params) *frontRig {
	t.Helper()
	cfg.Parallelism = 1
	worker, err := shard.NewWithParams(cfg, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(remote.NewWorker(worker))
	t.Cleanup(ts.Close)
	client := remote.NewClient(ts.URL)
	t.Cleanup(func() { client.Close() })
	rig := &frontRig{tier: core.NewReportCache(0, 0), backend: &callCounter{Backend: client}, worker: worker}
	rig.front, err = shard.NewWithBackends(cfg, rig.tier, []shard.Backend{rig.backend})
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

func (rig *frontRig) characterize(t *testing.T, f *frame.Frame, sel *frame.Bitmap, opts core.Options) *core.Report {
	t.Helper()
	rep, err := rig.front.CharacterizeOpts(f, sel, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFrontTierRepeatSkipsRPC pins the tentpole path and its accounting:
// the first repeat is a characterize reply the worker's cache answered,
// which fills the front tier, the next is answered there with no RPC, and
// each request is counted once across the front and worker tiers. The
// router never asks a remote backend's CachedReport.
func TestFrontTierRepeatSkipsRPC(t *testing.T) {
	rig := newFrontRig(t, core.DefaultConfig(), shard.Params{})
	f, sel := shard.TestTable(t, 1)
	cold := rig.characterize(t, f, sel, core.Options{})
	workerHit := rig.characterize(t, f, sel, core.Options{})
	if cold.ReportCacheHit || !workerHit.ReportCacheHit || rig.tier.Len() != 1 {
		t.Fatalf("cold hit=%v, repeat hit=%v, front entries=%d; want a cold miss, then a worker hit stored once",
			cold.ReportCacheHit, workerHit.ReportCacheHit, rig.tier.Len())
	}
	calls := rig.backend.calls.Load()
	frontHit := rig.characterize(t, f, sel, core.Options{})
	if got := rig.backend.calls.Load(); got != calls {
		t.Errorf("front-tier hit still called the worker (%d calls, want %d)", got, calls)
	}
	if calls != 2 || rig.backend.probes.Load() != 0 {
		t.Errorf("%d characterize calls and %d remote probes for a miss and a repeat, want 2 and 0",
			calls, rig.backend.probes.Load())
	}
	if !frontHit.ReportCacheHit || !bytes.Equal(core.EncodeReport(frontHit), core.EncodeReport(workerHit)) {
		t.Error("front-tier hit differs from the worker hit it replaces")
	}
	front := rig.front.Stats()
	if front.Reports.Hits != 1 || front.Reports.Misses != 0 {
		t.Errorf("front tier = %+v, want 1 hit and no counted miss", front.Reports)
	}
	if w := rig.worker.Stats().Reports; w.Hits != 1 || w.Misses != 1 {
		t.Errorf("worker tier = %+v, want 1 hit / 1 miss", w)
	}
	if got := front.Totals().Reports.Requests(); got != 3 {
		t.Errorf("requests summed over both tiers = %d, want 3", got)
	}
}

// TestFrontTierStoresRequestedApproximate pins the other half of the
// degraded-report rule: an approximate report the request itself asked for
// is stored under that request's own key, so its repeats skip the RPC.
func TestFrontTierStoresRequestedApproximate(t *testing.T) {
	rig := newFrontRig(t, core.DefaultConfig(), shard.Params{})
	f, sel := shard.TestTable(t, 8)
	approx := core.Options{ApproxRows: 40}
	for i := 0; i < 3; i++ {
		if rep := rig.characterize(t, f, sel, approx); rep.Approximate == nil {
			t.Fatalf("approximate request %d answered exactly", i)
		}
	}
	if got := rig.backend.calls.Load(); got != 2 {
		t.Errorf("%d characterize calls for three approximate requests, want 2 (the third is a front-tier hit)", got)
	}
}

// TestWrappedLocalBackendProbesItsEngine pins that a wrapper embedding an
// in-process backend (a tracer, say) still reads as local: the router has
// no front tier for it and probes the engine's cache on every repeat, so
// the backend counts every request and the wrapper sees every probe.
func TestWrappedLocalBackendProbesItsEngine(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	reports := core.NewReportCache(0, 0)
	eb, err := shard.NewEngineBackend(cfg, reports, shard.Params{})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &callCounter{Backend: eb}
	r, err := shard.NewWithBackends(cfg, reports, []shard.Backend{wrapped})
	if err != nil {
		t.Fatal(err)
	}
	f, sel := shard.TestTable(t, 7)
	for i := 0; i < 4; i++ { // one miss, three repeats
		if _, err := r.Characterize(f, sel); err != nil {
			t.Fatal(err)
		}
	}
	if got := eb.Snapshot().Requests; got != 4 {
		t.Errorf("backend requests = %d, want 4", got)
	}
	if got := wrapped.probes.Load(); got != 4 {
		t.Errorf("probes through the wrapper = %d, want 4", got)
	}
}

// TestFrontTierSkipsDegradedReports pins that a report degraded under
// pressure never lands in the front tier: the worker memoizes it under its
// approximate key, and the front tier fills only from cache-hit replies to
// the request's own key.
// Once the pressure ends, the exact request is answered exactly.
func TestFrontTierSkipsDegradedReports(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ApproxUnderPressure = true
	rig := newFrontRig(t, cfg, shard.Params{Concurrency: 1, QueueDepth: 1})
	f, sel := shard.TestTable(t, 2)

	release := shard.FillShard(rig.worker, 0)
	for i := 0; i < 2; i++ {
		if rep := rig.characterize(t, f, sel, core.Options{}); rep.Approximate == nil {
			t.Fatalf("request %d under pressure answered exactly; the rig did not saturate", i)
		}
		if n := rig.tier.Len(); n != 0 {
			t.Fatalf("front tier holds %d entries after a degraded answer, want 0", n)
		}
	}
	release()

	for i, want := range []bool{false, true, true} {
		rep := rig.characterize(t, f, sel, core.Options{})
		if rep.Approximate != nil {
			t.Fatalf("exact request %d after the pressure ended answered approximately", i)
		}
		if rep.ReportCacheHit != want {
			t.Errorf("exact request %d: reportCacheHit=%v, want %v", i, rep.ReportCacheHit, want)
		}
	}
	if hits := rig.front.Stats().Reports.Hits; hits != 1 {
		t.Errorf("front tier hits = %d, want 1 (the third exact request)", hits)
	}
}

// TestFrontTierGrownTable pins the append path: the base's front entry
// stays, since no request on the grown table can reach it, and requests on
// the grown table call the worker until its cache-hit reply fills the front
// tier.
func TestFrontTierGrownTable(t *testing.T) {
	rig := newFrontRig(t, core.DefaultConfig(), shard.Params{})
	f, sel := shard.TestTable(t, 3)
	rig.characterize(t, f, sel, core.Options{})
	rig.characterize(t, f, sel, core.Options{})
	if rig.tier.Len() != 1 {
		t.Fatalf("front tier holds %d entries after a worker hit, want 1", rig.tier.Len())
	}

	tail, tailSel := shard.TestTable(t, 4)
	grown, err := f.Append(tail)
	if err != nil {
		t.Fatal(err)
	}
	grownSel := frame.NewBitmap(grown.NumRows())
	for i := 0; i < f.NumRows(); i++ {
		if sel.Get(i) {
			grownSel.Set(i)
		}
	}
	for i := 0; i < tail.NumRows(); i++ {
		if tailSel.Get(i) {
			grownSel.Set(f.NumRows() + i)
		}
	}
	for i, wantCall := range []bool{true, true, false} {
		before := rig.backend.calls.Load()
		rep := rig.characterize(t, grown, grownSel, core.Options{})
		if called := rig.backend.calls.Load() > before; called != wantCall {
			t.Errorf("grown-table request %d: called the worker = %v, want %v", i, called, wantCall)
		}
		if rep.TotalRows != grown.NumRows() {
			t.Errorf("grown-table request %d answered over %d rows, want %d", i, rep.TotalRows, grown.NumRows())
		}
	}
	if n := rig.tier.Len(); n != 2 {
		t.Errorf("front tier holds %d entries, want 2 (the base's and the grown table's)", n)
	}
}

// TestFrontTierSkipReportCache pins that SkipReportCache neither reads nor
// fills the front tier, even when it holds the request's exact report.
func TestFrontTierSkipReportCache(t *testing.T) {
	rig := newFrontRig(t, core.DefaultConfig(), shard.Params{})
	f, sel := shard.TestTable(t, 5)
	skip := core.Options{SkipReportCache: true}
	for i := 0; i < 2; i++ {
		if rep := rig.characterize(t, f, sel, skip); rep.ReportCacheHit {
			t.Fatalf("SkipReportCache request %d was served from a cache", i)
		}
	}
	if n := rig.tier.Len(); n != 0 {
		t.Fatalf("SkipReportCache filled the front tier with %d entries", n)
	}

	rig.characterize(t, f, sel, core.Options{})
	rig.characterize(t, f, sel, core.Options{}) // a worker hit: now stored
	before := rig.tier.Snapshot()
	if rep := rig.characterize(t, f, sel, skip); rep.ReportCacheHit {
		t.Error("SkipReportCache request read the front tier")
	}
	if after := rig.tier.Snapshot(); after != before {
		t.Errorf("SkipReportCache touched the front tier: %+v, was %+v", after, before)
	}
}

// TestFrontTierServesWorkerHitBody pins the served bytes: through the demo
// server, the /api/characterize body a front-tier hit answers is the body
// of the worker-cache hit it replaces.
func TestFrontTierServesWorkerHitBody(t *testing.T) {
	rig := newFrontRig(t, core.DefaultConfig(), shard.Params{})
	cat := db.NewCatalog()
	if err := cat.Register(synth.BoxOffice(1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(cat, rig.front, nil))
	t.Cleanup(ts.Close)
	post := func() []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/characterize", "application/json",
			strings.NewReader(`{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100", "excludePredicate": true}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, err %v: %s", resp.StatusCode, err, body)
		}
		return body
	}
	post()
	workerHit := post()
	calls := rig.backend.calls.Load()
	frontHit := post()
	if rig.backend.calls.Load() != calls {
		t.Fatal("third request called the worker; the front tier did not answer it")
	}
	if !bytes.Equal(frontHit, workerHit) {
		t.Errorf("front-tier hit body differs from the worker hit body:\n%s\nvs\n%s", frontHit, workerHit)
	}
}

// TestFrontTierConcurrentRepeats runs one repeat from many goroutines at
// once, so the front tier is read and filled concurrently (run it under
// -race): every answer is the cached report's bytes, and the requests are
// counted once each across the front and worker tiers.
func TestFrontTierConcurrentRepeats(t *testing.T) {
	const goroutines, repeats = 8, 20
	rig := newFrontRig(t, core.DefaultConfig(), shard.Params{})
	f, sel := shard.TestTable(t, 6)
	// canonical drops what legitimately differs between servings: the
	// cache flags and the stage timings.
	canonical := func(rep *core.Report) []byte {
		c := *rep
		c.CacheHit, c.ReportCacheHit, c.Timings = false, false, core.Timings{}
		return core.EncodeReport(&c)
	}
	want := canonical(rig.characterize(t, f, sel, core.Options{}))
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < repeats; i++ {
				rep, err := rig.front.Characterize(f, sel)
				if err != nil {
					t.Error(err)
					return
				}
				if !rep.ReportCacheHit || !bytes.Equal(canonical(rep), want) {
					t.Error("a concurrent repeat answered other bytes than the cold report")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := rig.front.Stats().Totals().Reports.Requests(); got != 1+goroutines*repeats {
		t.Errorf("requests summed over both tiers = %d, want %d", got, 1+goroutines*repeats)
	}
}
