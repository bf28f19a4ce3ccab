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

// probeCounter wraps a backend and counts the cache probes sent through it.
type probeCounter struct {
	shard.Backend
	probes atomic.Int64
}

func (p *probeCounter) CachedReport(fp uint64, sel *frame.Bitmap, opts core.Options) (*core.Report, bool) {
	p.probes.Add(1)
	return p.Backend.CachedReport(fp, sel, opts)
}

// frontRig is a front router over one worker served by an httptest server.
type frontRig struct {
	front   *shard.Router
	tier    *core.ReportCache // the front's report cache: its front tier
	backend *probeCounter
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
	rig := &frontRig{tier: core.NewReportCache(0, 0), backend: &probeCounter{Backend: client}, worker: worker}
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

// TestFrontTierRepeatSkipsProbe pins the tentpole path and its accounting:
// the first repeat is a worker-probe hit that fills the front tier, the
// next is answered there with no probe, and each request is counted once
// across the front and worker tiers.
func TestFrontTierRepeatSkipsProbe(t *testing.T) {
	rig := newFrontRig(t, core.DefaultConfig(), shard.Params{})
	f, sel := shard.TestTable(t, 1)
	cold := rig.characterize(t, f, sel, core.Options{})
	probeHit := rig.characterize(t, f, sel, core.Options{})
	if cold.ReportCacheHit || !probeHit.ReportCacheHit || rig.tier.Len() != 1 {
		t.Fatalf("cold hit=%v, repeat hit=%v, front entries=%d; want a cold miss, then a probe hit stored once",
			cold.ReportCacheHit, probeHit.ReportCacheHit, rig.tier.Len())
	}
	probes := rig.backend.probes.Load()
	frontHit := rig.characterize(t, f, sel, core.Options{})
	if got := rig.backend.probes.Load(); got != probes {
		t.Errorf("front-tier hit still probed the worker (%d probes, want %d)", got, probes)
	}
	if !frontHit.ReportCacheHit || !bytes.Equal(core.EncodeReport(frontHit), core.EncodeReport(probeHit)) {
		t.Error("front-tier hit differs from the worker-probe hit it replaces")
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
	wrapped := &probeCounter{Backend: eb}
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
// approximate key, and the front tier fills only from exact-key probe hits.
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

// TestFrontTierInvalidateFrame pins the append and unregister path:
// Router.InvalidateFrame drops the old fingerprint's front entries, and
// requests on the grown table probe the worker until their own probe hit
// fills the front tier.
func TestFrontTierInvalidateFrame(t *testing.T) {
	rig := newFrontRig(t, core.DefaultConfig(), shard.Params{})
	f, sel := shard.TestTable(t, 3)
	rig.characterize(t, f, sel, core.Options{})
	rig.characterize(t, f, sel, core.Options{})
	if rig.tier.Len() != 1 {
		t.Fatalf("front tier holds %d entries after a probe hit, want 1", rig.tier.Len())
	}

	rig.front.InvalidateFrame(f.Fingerprint())
	if n := rig.tier.Len(); n != 0 {
		t.Fatalf("front tier holds %d entries of the invalidated fingerprint, want 0", n)
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
	for i, wantProbe := range []bool{true, true, false} {
		before := rig.backend.probes.Load()
		rig.characterize(t, grown, grownSel, core.Options{})
		if probed := rig.backend.probes.Load() > before; probed != wantProbe {
			t.Errorf("grown-table request %d: probed the worker = %v, want %v", i, probed, wantProbe)
		}
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
	rig.characterize(t, f, sel, core.Options{}) // a probe hit: now stored
	before := rig.tier.Snapshot()
	if rep := rig.characterize(t, f, sel, skip); rep.ReportCacheHit {
		t.Error("SkipReportCache request read the front tier")
	}
	if after := rig.tier.Snapshot(); after != before {
		t.Errorf("SkipReportCache touched the front tier: %+v, was %+v", after, before)
	}
}

// TestFrontTierServesProbeHitBody pins the served bytes: through the demo
// server, the /api/characterize body a front-tier hit answers is the body
// of the worker-probe hit it replaces.
func TestFrontTierServesProbeHitBody(t *testing.T) {
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
	probeHit := post()
	probes := rig.backend.probes.Load()
	frontHit := post()
	if rig.backend.probes.Load() != probes {
		t.Fatal("third request probed the worker; the front tier did not answer it")
	}
	if !bytes.Equal(frontHit, probeHit) {
		t.Errorf("front-tier hit body differs from the worker-probe hit body:\n%s\nvs\n%s", frontHit, probeHit)
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
