package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/depend"
	"repro/internal/frame"
	"repro/internal/synth"
)

// sliceFrame copies rows [lo, hi) of f into a frame with the given chunk
// capacity.
func sliceFrame(t *testing.T, f *frame.Frame, lo, hi, chunkRows int) *frame.Frame {
	t.Helper()
	cols := make([]*frame.Column, f.NumCols())
	for i, c := range f.Columns() {
		if c.Kind() == frame.Numeric {
			cols[i] = frame.NewNumericColumn(c.Name(), append([]float64(nil), c.Floats()[lo:hi]...))
			continue
		}
		nc, err := frame.NewCategoricalColumnFromCodes(c.Name(), append([]int32(nil), c.Codes()[lo:hi]...), c.Dict())
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = nc
	}
	out, err := frame.NewChunked(f.Name(), cols, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// firstThird selects the first third of f's rows.
func firstThird(f *frame.Frame) *frame.Bitmap {
	sel := frame.NewBitmap(f.NumRows())
	for i := 0; i < f.NumRows()/3; i++ {
		sel.Set(i)
	}
	return sel
}

// encodeStable encodes a report with its volatile fields cleared.
func encodeStable(rep *Report) []byte {
	c := *rep
	c.Timings = Timings{}
	c.CacheHit, c.ReportCacheHit = false, false
	return EncodeReport(&c)
}

// TestAppendResumesDependencyFold pins the prefix tier's lifecycle. A table
// is characterized, its prepared structures leave the prepared tier the way
// a superseded version's age out of the LRU, and its grown successor then
// folds only the rows past the base's last full chunk, in its numeric pairs
// and its categorical × numeric η cells alike, answering byte-identically
// to the same rows loaded whole on a cold engine. InvalidateCache drops the
// prefix states: the next build folds and feeds every row.
func TestAppendResumesDependencyFold(t *testing.T) {
	const rows, tail, chunkRows = 16384, 256, 1024
	whole := synth.Micro("m", 5, rows+tail, 8)
	base := sliceFrame(t, whole, 0, rows, chunkRows)
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Characterize(base, firstThird(base)); err != nil {
		t.Fatal(err)
	}
	e.prep.Purge()

	grown, err := base.Append(sliceFrame(t, whole, rows, rows+tail, chunkRows))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{SkipReportCache: true}
	mixed := int64(whole.NumCols() - 1) // tier × each numeric column
	before, fedBefore := depend.RowsFolded(), depend.EtaRowsFed()
	rep, err := e.CharacterizeOpts(grown, firstThird(grown), opts)
	if err != nil {
		t.Fatal(err)
	}
	if folded := depend.RowsFolded() - before; folded > chunkRows+tail {
		t.Errorf("append after the base left the prepared tier folded %d rows per pair, want ≤ %d", folded, chunkRows+tail)
	}
	if fed := (depend.EtaRowsFed() - fedBefore) / mixed; fed > chunkRows+tail {
		t.Errorf("append after the base left the prepared tier fed %d rows per η cell, want ≤ %d", fed, chunkRows+tail)
	}

	cold, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded := sliceFrame(t, whole, 0, rows+tail, frame.DefaultChunkRows)
	want, err := cold.Characterize(loaded, firstThird(loaded))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeStable(rep), encodeStable(want)) {
		t.Error("report on the resumed table differs from the whole load on a cold engine")
	}

	e.InvalidateCache()
	before, fedBefore = depend.RowsFolded(), depend.EtaRowsFed()
	if _, err := e.CharacterizeOpts(grown, firstThird(grown), opts); err != nil {
		t.Fatal(err)
	}
	if folded := depend.RowsFolded() - before; folded != rows+tail {
		t.Errorf("after InvalidateCache the build folded %d rows per pair, want all %d", folded, rows+tail)
	}
	if fed := (depend.EtaRowsFed() - fedBefore) / mixed; fed != rows+tail {
		t.Errorf("after InvalidateCache the build fed %d rows per η cell, want all %d", fed, rows+tail)
	}
}

// TestAppendLoopBoundsEngineTiers is the engine's part of the append memory
// rail, the one that sees the prefix tier (TestAppendLoopStaysBounded
// covers the session's and the worker's tiers): 50 appends on one engine at
// CacheEntries 8, and no tier ever holds more than 8 entries although no
// superseded version is dropped early.
func TestAppendLoopBoundsEngineTiers(t *testing.T) {
	const rows, step, appends, bound, chunkRows = 512, 32, 50, 8, 64
	whole := synth.Micro("m", 9, rows+appends*step, 5)
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	cfg.CacheEntries = bound
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := sliceFrame(t, whole, 0, rows, chunkRows)
	for i := 0; i < appends; i++ {
		if f, err = f.Append(sliceFrame(t, whole, rows+i*step, rows+(i+1)*step, chunkRows)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Characterize(f, firstThird(f)); err != nil {
			t.Fatal(err)
		}
		for tier, n := range map[string]int{"prepared": e.prep.Len(), "prefix": e.prefixes.Len(), "report": e.reports.Len()} {
			if n > bound {
				t.Fatalf("append %d: %s tier holds %d entries, want ≤ %d", i, tier, n, bound)
			}
		}
	}
}

// TestConcurrentAppendsShareFoldStates has several goroutines characterize
// the versions of one growing table on a shared engine, all resuming from
// and storing into the same prefix tier, and requires every report to match
// a cold engine's.
func TestConcurrentAppendsShareFoldStates(t *testing.T) {
	const rows, step, chunkRows, versions = 4096, 160, 512, 4
	whole := synth.Micro("m", 6, rows+versions*step, 6)
	base := sliceFrame(t, whole, 0, rows, chunkRows)
	cfg := DefaultConfig()
	cfg.Parallelism = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Characterize(base, firstThird(base)); err != nil {
		t.Fatal(err)
	}
	grown := make([]*frame.Frame, versions)
	want := make([][]byte, versions)
	for k := range grown {
		g, err := base.Append(sliceFrame(t, whole, rows, rows+(k+1)*step, chunkRows))
		if err != nil {
			t.Fatal(err)
		}
		grown[k] = g
		cold, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cold.Characterize(g, firstThird(g))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = encodeStable(rep)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2*versions; w++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rep, err := e.CharacterizeOpts(grown[k], firstThird(grown[k]), Options{SkipReportCache: true})
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(encodeStable(rep), want[k]) {
				t.Errorf("version %d: report differs from a cold engine's", k)
			}
		}(w % versions)
	}
	wg.Wait()
}
