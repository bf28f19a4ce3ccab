package ziggy_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	ziggy "repro"
	"repro/internal/frame"
	"repro/internal/synth"
)

// sliceRows carves rows [lo, hi) of f into a standalone frame with the same
// name and schema — the shape of an incremental batch arriving later.
func sliceRows(t *testing.T, f *ziggy.Frame, lo, hi int) *ziggy.Frame {
	t.Helper()
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return f.Take(idx)
}

// loadInPieces registers the first of k contiguous row slices of table and
// appends the rest one batch at a time.
func loadInPieces(t *testing.T, s *ziggy.Session, table *ziggy.Frame, k int) {
	t.Helper()
	n := table.NumRows()
	per := (n + k - 1) / k
	if err := s.Register(sliceRows(t, table, 0, per)); err != nil {
		t.Fatal(err)
	}
	for lo := per; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		if err := s.Append(table.Name(), sliceRows(t, table, lo, hi)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChunkedLoadDifferential is the differential rail of the chunked
// representation: a table loaded in k incremental batches (k ∈ {1, 3, 17})
// characterizes byte-identically to the same table loaded whole, across
// Parallelism ∈ {1, 2, NumCPU} × k ∈ {1, 2, 4} local backends. Chunk layout and load
// history are never allowed to leak into report bytes.
func TestChunkedLoadDifferential(t *testing.T) {
	table := synth.Micro("micro", 3, 400, 6)
	q75, err := ziggy.Quantile(table, "m00", 0.75)
	if err != nil {
		t.Fatal(err)
	}
	query := fmt.Sprintf("SELECT * FROM micro WHERE m00 >= %v", q75)

	whole := newSession(t)
	if err := whole.Register(table); err != nil {
		t.Fatal(err)
	}
	ref, err := whole.Characterize(query)
	if err != nil {
		t.Fatal(err)
	}
	want := reportFingerprint(ref.Report)

	for _, par := range []int{1, 2, runtime.NumCPU()} {
		for _, backends := range []int{1, 2, 4} {
			for _, k := range []int{1, 3, 17} {
				cfg := ziggy.DefaultConfig()
				cfg.Parallelism = par
				s := localSession(t, cfg, nil, backends)
				loadInPieces(t, s, table, k)
				rep, err := s.Characterize(query)
				if err != nil {
					t.Fatalf("par=%d backends=%d k=%d: %v", par, backends, k, err)
				}
				if rep.TotalRows != table.NumRows() {
					t.Fatalf("par=%d backends=%d k=%d: loaded %d rows, want %d",
						par, backends, k, rep.TotalRows, table.NumRows())
				}
				if got := reportFingerprint(rep.Report); got != want {
					t.Errorf("par=%d backends=%d k=%d: chunked load diverges from whole load\n--- whole\n%s\n--- chunked\n%s",
						par, backends, k, want, got)
				}
			}
		}
	}
}

// TestChunkedLoadDifferentialUSCrime repeats the differential rail once on
// the paper's running-example table: 17 incremental batches of the
// 1994-row × 128-column crime twin characterize byte-identically to the
// whole table.
func TestChunkedLoadDifferentialUSCrime(t *testing.T) {
	if testing.Short() {
		t.Skip("uscrime differential is not short")
	}
	table := ziggy.USCrimeData(42)
	q90, err := ziggy.Quantile(table, "crime_violent_rate", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	query := fmt.Sprintf("SELECT * FROM uscrime WHERE crime_violent_rate >= %v", q90)

	whole := newSession(t)
	if err := whole.Register(table); err != nil {
		t.Fatal(err)
	}
	ref, err := whole.Characterize(query)
	if err != nil {
		t.Fatal(err)
	}

	chunked := newSession(t)
	loadInPieces(t, chunked, table, 17)
	rep, err := chunked.Characterize(query)
	if err != nil {
		t.Fatal(err)
	}
	if reportFingerprint(rep.Report) != reportFingerprint(ref.Report) {
		t.Error("17-batch crime load diverges from whole load")
	}
}

// chunkedMicro builds a Micro table rechunked to a small capacity so a few
// hundred rows span many chunks.
func chunkedMicro(t *testing.T, name string, seed uint64, rows, cols, chunkRows int) *ziggy.Frame {
	t.Helper()
	f, err := frame.NewChunked(name, synth.Micro(name, seed, rows, cols).Columns(), chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAppendRescansOnlyNewChunks is the incremental rail at the session
// level: after a ≤10% append, re-characterizing seals only the chunks past
// the base table's last full chunk boundary — pinned by the chunk-scan
// meter, in the style of the stats.RankOps rails.
func TestAppendRescansOnlyNewChunks(t *testing.T) {
	const (
		rows, cols, chunkRows = 400, 6, 64
		tailRows              = 40 // 10% append
	)
	table := chunkedMicro(t, "micro", 3, rows, cols, chunkRows)
	// Same generator, longer run: rows [400, 440) are the arriving batch.
	tail := sliceRows(t, synth.Micro("micro", 3, rows+tailRows, cols), rows, rows+tailRows)
	query := "SELECT * FROM micro WHERE m00 >= 10"

	s := newSession(t)
	if err := s.Register(table); err != nil {
		t.Fatal(err)
	}
	before := frame.ChunkScans()
	if _, err := s.Characterize(query); err != nil {
		t.Fatal(err)
	}
	coldScans := frame.ChunkScans() - before
	// The cold run seals every chunk of every column: ⌈400/64⌉ = 7 each.
	if want := int64(cols * 7); coldScans != want {
		t.Fatalf("cold characterization sealed %d chunks, want %d", coldScans, want)
	}

	if err := s.Append("micro", tail); err != nil {
		t.Fatal(err)
	}
	before = frame.ChunkScans()
	rep, err := s.Characterize(query)
	if err != nil {
		t.Fatal(err)
	}
	incScans := frame.ChunkScans() - before
	// The base's 6 full chunks (384 rows) carry over; only rows [384, 440)
	// rescan — one chunk per column.
	if want := int64(cols * 1); incScans != want {
		t.Errorf("incremental characterization sealed %d chunks, want %d", incScans, want)
	}
	if rep.TotalRows != rows+tailRows {
		t.Errorf("grown table has %d rows, want %d", rep.TotalRows, rows+tailRows)
	}
	if rep.ReportCacheHit {
		t.Error("post-append characterization served a stale cached report")
	}
}

// TestAppendInvalidatesScopedReports pins the fingerprint-keyed cache
// invalidation: appending to one table drops its cached reports and
// prepared structures while an unrelated table's entries keep serving hits.
func TestAppendInvalidatesScopedReports(t *testing.T) {
	a := synth.Micro("a", 1, 256, 5)
	grown := synth.Micro("a", 1, 288, 5)
	b := synth.Micro("b", 2, 256, 5)
	qa, qb := "SELECT * FROM a WHERE m00 >= 10", "SELECT * FROM b WHERE m00 >= 10"

	s := newSession(t)
	for _, f := range []*ziggy.Frame{a, b} {
		if err := s.Register(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{qa, qb} {
		if _, err := s.Characterize(q); err != nil {
			t.Fatal(err)
		}
	}
	stats := s.CacheStats()
	if stats.Reports.Entries != 2 || stats.Prepared.Entries != 2 {
		t.Fatalf("expected both tables cached, got %+v", stats)
	}

	if err := s.Append("a", sliceRows(t, grown, 256, 288)); err != nil {
		t.Fatal(err)
	}
	stats = s.CacheStats()
	if stats.Reports.Entries != 1 || stats.Prepared.Entries != 1 {
		t.Errorf("append to %q should drop only its own entries, got %+v", "a", stats)
	}

	repB, err := s.Characterize(qb)
	if err != nil {
		t.Fatal(err)
	}
	if !repB.ReportCacheHit {
		t.Error("append to \"a\" evicted \"b\"'s cached report")
	}
	repA, err := s.Characterize(qa)
	if err != nil {
		t.Fatal(err)
	}
	if repA.ReportCacheHit {
		t.Error("characterization of the grown table served the stale report")
	}
	if repA.TotalRows != 288 {
		t.Errorf("grown table reports %d rows, want 288", repA.TotalRows)
	}
}

// TestConcurrentAppendKeepsEveryRow pins Session.Append's read-grow-
// register as atomic: appenders racing each other and concurrent
// characterizations must neither lose a batch nor race on the catalog (run
// under -race).
func TestConcurrentAppendKeepsEveryRow(t *testing.T) {
	const appenders, appendsEach, readers = 4, 2, 4
	batch := ziggy.BoxOfficeData(1)
	s := newSession(t)
	if err := s.Register(batch); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, appenders*appendsEach+readers*appendsEach)
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < appendsEach; k++ {
				errs <- s.Append("boxoffice", batch)
			}
		}()
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < appendsEach; k++ {
				_, err := s.Characterize("SELECT * FROM boxoffice WHERE gross_musd >= 100")
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	f, _ := s.Table("boxoffice")
	if want := batch.NumRows() * (1 + appenders*appendsEach); f.NumRows() != want {
		t.Errorf("table ended with %d rows, want %d", f.NumRows(), want)
	}
}

// TestAppendEdgeCases covers the loud-rejection paths of Session.Append and
// the empty-append no-op.
func TestAppendEdgeCases(t *testing.T) {
	table := synth.Micro("micro", 3, 128, 5)
	s := newSession(t)
	if err := s.Register(table); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Characterize("SELECT * FROM micro WHERE m00 >= 10"); err != nil {
		t.Fatal(err)
	}

	if err := s.Append("nope", table); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Errorf("append to unknown table: %v", err)
	}
	if err := s.Append("micro", ziggy.BoxOfficeData(1)); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Errorf("schema-mismatched append: %v", err)
	}

	// Empty append: the table object and its caches are untouched.
	registered, _ := s.Table("micro")
	if err := s.Append("micro", sliceRows(t, table, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if now, _ := s.Table("micro"); now != registered {
		t.Error("empty append replaced the table object")
	}
	rep, err := s.Characterize("SELECT * FROM micro WHERE m00 >= 10")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ReportCacheHit {
		t.Error("empty append invalidated the cached report")
	}
}

// TestChunkBoundarySelections pins that selections hugging and straddling
// chunk boundaries characterize byte-identically on a chunked frame and on
// a flat copy of the same content.
func TestChunkBoundarySelections(t *testing.T) {
	const rows, cols, chunkRows = 256, 6, 64
	flat := synth.Micro("micro", 9, rows, cols)
	chunked := chunkedMicro(t, "micro", 9, rows, cols, chunkRows)
	if flat.Fingerprint() != chunked.Fingerprint() {
		t.Fatal("chunk layout leaked into the content fingerprint")
	}

	span := func(lo, hi int) *ziggy.Bitmap {
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		return frame.BitmapFromIndices(rows, idx)
	}
	masks := map[string]*ziggy.Bitmap{
		"first chunk":       span(0, chunkRows),
		"second chunk":      span(chunkRows, 2*chunkRows),
		"straddle boundary": span(chunkRows/2, chunkRows+chunkRows/2),
		"last chunk":        span(rows-chunkRows, rows),
		"three chunks":      span(0, 3*chunkRows),
	}

	// Separate sessions so the chunked run cannot be served from the flat
	// run's report cache.
	sf, sc := newSession(t), newSession(t)
	for name, mask := range masks {
		repF, err := sf.Router().Characterize(flat, mask)
		if err != nil {
			t.Fatalf("%s (flat): %v", name, err)
		}
		repC, err := sc.Router().Characterize(chunked, mask)
		if err != nil {
			t.Fatalf("%s (chunked): %v", name, err)
		}
		if reportFingerprint(repF) != reportFingerprint(repC) {
			t.Errorf("%s: chunked and flat reports differ", name)
		}
	}
}

// TestUnregisterDropsTableAndReports pins the other half of the lifecycle:
// unregistering removes the table and purges its cached reports, scoped by
// fingerprint.
func TestUnregisterDropsTableAndReports(t *testing.T) {
	a, b := synth.Micro("a", 1, 256, 5), synth.Micro("b", 2, 256, 5)
	qa, qb := "SELECT * FROM a WHERE m00 >= 10", "SELECT * FROM b WHERE m00 >= 10"
	s := newSession(t)
	for _, f := range []*ziggy.Frame{a, b} {
		if err := s.Register(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{qa, qb} {
		if _, err := s.Characterize(q); err != nil {
			t.Fatal(err)
		}
	}

	if !s.Unregister("a") {
		t.Fatal("Unregister(\"a\") = false for a registered table")
	}
	if s.Unregister("a") {
		t.Error("Unregister(\"a\") = true for a dropped table")
	}
	if got := s.Tables(); len(got) != 1 || got[0] != "b" {
		t.Errorf("Tables = %v, want [b]", got)
	}
	if _, err := s.Characterize(qa); err == nil {
		t.Error("characterizing a dropped table succeeded")
	}
	if stats := s.CacheStats(); stats.Reports.Entries != 1 {
		t.Errorf("dropped table's reports were not purged: %+v", stats)
	}
	rep, err := s.Characterize(qb)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ReportCacheHit {
		t.Error("unregistering \"a\" evicted \"b\"'s cached report")
	}
}

// TestNewOptionTopologies covers ziggy.New's functional options: the
// default one-engine topology, a shared report cache, explicit backends, and
// an empty peer list.
func TestNewOptionTopologies(t *testing.T) {
	s, err := ziggy.New(ziggy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 1 || s.Engine() == nil {
		t.Errorf("New: %d backends, want 1 in-process engine", s.Shards())
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}

	// WithSharedCache: two sessions serve each other's repeat queries.
	rc := ziggy.NewReportCache(0, 0)
	open := func() *ziggy.Session {
		s, err := ziggy.New(ziggy.DefaultConfig(), ziggy.WithSharedCache(rc))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(synth.Micro("micro", 3, 256, 5)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	sa, sb := open(), open()
	if _, err := sa.Characterize("SELECT * FROM micro WHERE m00 >= 10"); err != nil {
		t.Fatal(err)
	}
	rep, err := sb.Characterize("SELECT * FROM micro WHERE m00 >= 10")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ReportCacheHit {
		t.Error("WithSharedCache sessions did not share the report cache")
	}

	// WithBackends: several local engines are explicit backends.
	if se := localSession(t, ziggy.DefaultConfig(), nil, 2); se.Shards() != 2 {
		t.Errorf("WithBackends(2 backends): %d backends, want 2", se.Shards())
	}

	// WithPeers with no addresses contributes no backends, so New falls back
	// to the in-process engine.
	sp, err := ziggy.New(ziggy.DefaultConfig(), ziggy.WithPeers())
	if err != nil {
		t.Fatal(err)
	}
	if sp.Shards() != 1 || sp.Engine() == nil {
		t.Errorf("WithPeers(): %d backends, want the in-process engine", sp.Shards())
	}
}

// TestPrivateEngineBackendCounted pins that a local backend built on its
// own report cache shows in the session's stats: the backend reports its
// engine's tier, so three identical characterizations read 2 hits and 1
// miss in CacheStats, as in the engine itself.
func TestPrivateEngineBackendCounted(t *testing.T) {
	cfg := ziggy.DefaultConfig()
	eb, err := ziggy.NewEngineBackend(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ziggy.New(cfg, ziggy.WithBackends(eb))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ziggy.BoxOfficeData(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Characterize("SELECT * FROM boxoffice WHERE gross_musd >= 100"); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Engine().CacheStats().Reports; got.Hits != 2 || got.Misses != 1 {
		t.Fatalf("engine report tier = %+v, want 2 hits / 1 miss", got)
	}
	if got := s.CacheStats().Reports; got.Hits != 2 || got.Misses != 1 {
		t.Errorf("session report tier = %+v, want 2 hits / 1 miss", got)
	}
}

// TestOpenCSVStreaming covers the streaming loader end to end: a file opened
// with OpenCSV matches LoadCSV cell for cell and fingerprint for
// fingerprint, arrives chunked, and feeds straight into the append
// lifecycle.
func TestOpenCSVStreaming(t *testing.T) {
	table := synth.Micro("stream", 11, 300, 5)
	path := filepath.Join(t.TempDir(), "stream.csv")
	if err := ziggy.WriteCSV(path, table); err != nil {
		t.Fatal(err)
	}

	whole, err := ziggy.LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := ziggy.OpenCSV(path, ziggy.CSVOptions{ChunkRows: 128, MaxInferRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Fingerprint() != whole.Fingerprint() {
		t.Fatal("streamed load fingerprints differently from whole load")
	}
	if streamed.ChunkRows() != 128 || streamed.NumChunks() != 3 {
		t.Errorf("streamed frame layout %d×%d chunks, want 128×3", streamed.ChunkRows(), streamed.NumChunks())
	}

	s := newSession(t)
	if err := s.Register(streamed); err != nil {
		t.Fatal(err)
	}
	tail := sliceRows(t, synth.Micro("stream", 11, 340, 5), 300, 340)
	if err := s.Append("stream", tail); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Characterize("SELECT * FROM stream WHERE m00 >= 10")
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRows != 340 {
		t.Errorf("appended streamed table has %d rows, want 340", rep.TotalRows)
	}
}
