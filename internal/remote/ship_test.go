package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/depend"
	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/shard"
)

// newTestServer serves an already-built worker, or a handler wrapping one
// (tests that need a custom router config build their own instead of going
// through newWorker).
func newTestServer(t testing.TB, w http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(w)
	t.Cleanup(ts.Close)
	return ts
}

// chunkedTable builds a deterministic multi-chunk table at the minimum chunk
// capacity (64 rows per chunk): numeric columns with a planted shift on the
// selection plus one categorical with NULLs.
func chunkedTable(t testing.TB, seed uint64, rows int) (*frame.Frame, *frame.Bitmap) {
	t.Helper()
	f, err := frame.NewChunked(fmt.Sprintf("ct%d", seed), chunkedCols(seed, 0, rows), 64)
	if err != nil {
		t.Fatal(err)
	}
	sel := frame.NewBitmap(rows)
	for i := 0; i < rows/3; i++ {
		sel.Set(i)
	}
	return f, sel
}

// chunkedCols builds the column set for rows [lo, lo+n) of the seed's
// infinite deterministic table, so a tail built separately appends cleanly.
func chunkedCols(seed uint64, lo, n int) []*frame.Column {
	cols := make([]*frame.Column, 0, 4)
	for c := 0; c < 3; c++ {
		rng := randx.New(seed*31 + uint64(c))
		vals := make([]float64, lo+n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
			if i%17 == 0 {
				vals[i] += 2.5
			}
		}
		cols = append(cols, frame.NewNumericColumn(fmt.Sprintf("c%d", c), vals[lo:]))
	}
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("g%d", (lo+i)%3)
	}
	return append(cols, frame.NewCategoricalColumn("grp", labels))
}

// appendRows extends a chunked table by n rows of its own deterministic
// continuation, preserving the chunk capacity.
func appendRows(t testing.TB, f *frame.Frame, seed uint64, n int) *frame.Frame {
	t.Helper()
	tail, err := frame.NewChunked(f.Name(), chunkedCols(seed, f.NumRows(), n), f.ChunkRows())
	if err != nil {
		t.Fatal(err)
	}
	grown, err := f.Append(tail)
	if err != nil {
		t.Fatal(err)
	}
	return grown
}

// TestAppendShipsOnlyNewChunks is the acceptance pin of the delta transport:
// appending ≤10% of rows to an already-shipped table re-registers by
// shipping only the new chunks — wire bytes proportional to the delta, not
// the table — and the worker's reassembled table characterizes
// byte-identically to a local engine.
func TestAppendShipsOnlyNewChunks(t *testing.T) {
	const baseRows, tailRows = 640, 64 // 10 full chunks + 1 appended chunk
	base, _ := chunkedTable(t, 3, baseRows)
	grown := appendRows(t, base, 3, tailRows)
	sel := frame.NewBitmap(grown.NumRows())
	for i := 0; i < grown.NumRows()/3; i++ {
		sel.Set(i)
	}

	w, ts := newWorker(t, 1)
	c := NewClient(ts.URL)

	if err := c.RegisterTable(base); err != nil {
		t.Fatal(err)
	}
	cold := c.Snapshot()
	if cold.TablesShipped != 1 || cold.ChunksShipped != int64(base.NumChunks()) {
		t.Fatalf("cold ship counters = %d tables / %d chunks, want 1 / %d",
			cold.TablesShipped, cold.ChunksShipped, base.NumChunks())
	}

	if err := c.RegisterTable(grown); err != nil {
		t.Fatal(err)
	}
	warm := c.Snapshot()
	deltaChunks := warm.ChunksShipped - cold.ChunksShipped
	deltaBytes := warm.BytesShipped - cold.BytesShipped
	if deltaChunks != 1 {
		t.Errorf("append shipped %d chunks, want exactly the 1 new chunk", deltaChunks)
	}
	// The delta ship pays one manifest (metadata, O(chunks)) plus one chunk
	// (cells, O(delta rows)); re-shipping the whole table would cost ~11× the
	// cold chunk bytes. A quarter of the cold total is a loose ceiling that
	// fails loudly if the suffix computation ever regresses to full blobs.
	if deltaBytes <= 0 || deltaBytes >= cold.BytesShipped/4 {
		t.Errorf("append shipped %d bytes (cold ship %d); want o(table size)", deltaBytes, cold.BytesShipped)
	}
	if w.NumTables() != 2 {
		t.Errorf("worker holds %d tables, want both versions", w.NumTables())
	}

	// The reassembled-from-prefix table answers byte-identically to a local
	// engine characterizing the sender's frame.
	remoteRep, err := c.Characterize(grown, sel, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := shard.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	localRep, err := local.Characterize(grown, sel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(remoteRep), canonical(localRep)) {
		t.Error("report from the chunk-assembled remote table diverged from the local engine")
	}
}

// TestAppendShipDeterminism extends the topology acceptance sweep to
// delta-shipped tables: after the base version ships, the appended version's
// reports are byte-identical across local, remote, and mixed topologies for
// k = 1, 2 and 4 local backends — the reassembled frame is provably the
// sender's.
func TestAppendShipDeterminism(t *testing.T) {
	base, _ := chunkedTable(t, 5, 320)
	grown := appendRows(t, base, 5, 64)
	baseSel := frame.NewBitmap(base.NumRows())
	sel := frame.NewBitmap(grown.NumRows())
	for i := 0; i < grown.NumRows()/3; i++ {
		sel.Set(i)
		if i < base.NumRows() {
			baseSel.Set(i)
		}
	}

	refRouter, err := shard.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := refRouter.Characterize(grown, sel)
	if err != nil {
		t.Fatal(err)
	}
	reference := canonical(refRep)

	for _, k := range []int{1, 2, 4} {
		for name, router := range topologies(t, k) {
			// Ship and query the base first so the appended version arrives
			// over the delta path wherever a remote backend is involved.
			if _, err := router.Characterize(base, baseSel); err != nil {
				t.Fatalf("k=%d %s base: %v", k, name, err)
			}
			folded := depend.RowsFolded()
			rep, err := router.Characterize(grown, sel)
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, name, err)
			}
			// On one worker shard the grown table lands beside its base, so the
			// worker resumes the dependency fold from the base's last full
			// chunk instead of refolding every row.
			if folded = depend.RowsFolded() - folded; name == "remote" && k == 1 &&
				folded > int64(grown.NumRows()-base.FullChunks()*base.ChunkRows()) {
				t.Errorf("k=1 remote: the worker folded %d rows per pair for a %d-row append", folded, grown.NumRows()-base.NumRows())
			}
			if !bytes.Equal(canonical(rep), reference) {
				t.Errorf("k=%d %s: delta-shipped report diverged from the in-process reference", k, name)
			}
			router.Close()
		}
	}
}

// TestPartialStoreHeal pins the heal path when the worker's bounded table
// store evicted the queried version but kept an older one: the client's 404
// recovery renegotiates, the worker finds the surviving version as a prefix,
// and only the suffix re-crosses the wire.
func TestPartialStoreHeal(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 2 // table store holds two versions
	router, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(router)
	ts := newTestServer(t, w)
	c := NewClient(ts.URL)

	v1, sel1 := chunkedTable(t, 7, 320) // 5 chunks
	v2 := appendRows(t, v1, 7, 64)      // 6 chunks
	sel2 := frame.NewBitmap(v2.NumRows())
	for i := 0; i < v2.NumRows()/3; i++ {
		sel2.Set(i)
	}

	if err := c.RegisterTable(v1); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTable(v2); err != nil {
		t.Fatal(err)
	}
	// Touch v1 so v2 is the LRU victim, then push it out with an unrelated
	// table.
	if _, err := c.Characterize(v1, sel1, core.Options{}); err != nil {
		t.Fatal(err)
	}
	other, _ := chunkedTable(t, 8, 64)
	if err := c.RegisterTable(other); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.table(v2.Fingerprint()); ok {
		t.Fatal("v2 still resident; the eviction setup is wrong")
	}

	before := c.Snapshot()
	rep, err := c.Characterize(v2, sel2, core.Options{})
	if err != nil {
		t.Fatalf("characterize after eviction did not heal: %v", err)
	}
	after := c.Snapshot()
	if d := after.ChunksShipped - before.ChunksShipped; d != 1 {
		t.Errorf("heal re-shipped %d chunks; the resident v1 prefix should leave only 1", d)
	}
	if after.TablesShipped-before.TablesShipped != 1 {
		t.Errorf("heal ship counters = %+v", after)
	}

	// The healed table still answers byte-identically.
	local, err := shard.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	localRep, err := local.Characterize(v2, sel2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(rep), canonical(localRep)) {
		t.Error("healed report diverged from the local engine")
	}
}

// TestInvalidateFrameEndToEnd pins the invalidate RPC: the worker drops the
// fingerprint's derived report cache but keeps the stored table — it is the
// delta base the successor version wants — and the client forgets its
// shipped mark so a re-register renegotiates.
func TestInvalidateFrameEndToEnd(t *testing.T) {
	w, ts := newWorker(t, 1)
	c := NewClient(ts.URL)
	f, sel := chunkedTable(t, 9, 320)

	if err := c.RegisterTable(f); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Characterize(f, sel, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.CachedReport(f.Fingerprint(), sel, core.Options{}); !ok {
		t.Fatal("report cache cold after characterize")
	}

	c.InvalidateFrame(f.Fingerprint())
	if _, ok := c.CachedReport(f.Fingerprint(), sel, core.Options{}); ok {
		t.Error("worker report cache survived the invalidate")
	}
	if _, ok := w.table(f.Fingerprint()); !ok {
		t.Error("invalidate dropped the stored table; it must stay as the delta base")
	}

	// The superseding version delta-ships against the retained base.
	before := c.Snapshot()
	grown := appendRows(t, f, 9, 64)
	if err := c.RegisterTable(grown); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	if d := after.ChunksShipped - before.ChunksShipped; d != 1 {
		t.Errorf("post-invalidate register shipped %d chunks, want 1 (retained base prefix)", d)
	}
}

// TestShippedSetIsBounded pins the client's shipped-set LRU: after far more
// registrations than the bound, an aged-out fingerprint costs one manifest
// renegotiation but zero chunk bytes when the worker still holds the table.
func TestShippedSetIsBounded(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 512 // worker table store outlives the client's shipped set
	router, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(router)
	ts := newTestServer(t, w)
	c := NewClient(ts.URL)

	first, _ := testTable(t, 100)
	if err := c.RegisterTable(first); err != nil {
		t.Fatal(err)
	}
	entries, _ := core.DefaultConfig().EffectiveCacheBounds()
	for i := 0; i < entries+8; i++ {
		f, _ := testTable(t, 200+uint64(i))
		if err := c.RegisterTable(f); err != nil {
			t.Fatal(err)
		}
	}

	before := c.Snapshot()
	if err := c.RegisterTable(first); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	if d := after.ChunksShipped - before.ChunksShipped; d != 0 {
		t.Errorf("aged-out shipped mark re-shipped %d chunks; the worker-resident table needs none", d)
	}
	if after.TablesShipped != before.TablesShipped {
		t.Errorf("renegotiation without chunks counted as a table ship")
	}
	if d := after.BytesShipped - before.BytesShipped; d <= 0 {
		t.Errorf("renegotiation shipped %d bytes, want one manifest's worth", d)
	}
}

// postStream posts a raw chunk stream to the worker and returns the status.
func postStream(t testing.TB, ts *httptest.Server, body []byte) int {
	t.Helper()
	resp, err := http.Post(ts.URL+PathChunks, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// offerFor asks the worker what it would adopt for f (phase one alone).
func offerFor(t testing.TB, ts *httptest.Server, f *frame.Frame) ManifestResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+PathManifest, "application/octet-stream",
		bytes.NewReader(EncodeManifest(BuildManifest(f))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var offer ManifestResponse
	if err := json.NewDecoder(resp.Body).Decode(&offer); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest: status %d, %v", resp.StatusCode, err)
	}
	return offer
}

// sameAsLocal characterizes f on the worker behind c and in process and
// fails unless the reports are byte-identical.
func sameAsLocal(t testing.TB, c *Client, f *frame.Frame, sel *frame.Bitmap) {
	t.Helper()
	remoteRep, err := c.Characterize(f, sel, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := shard.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	localRep, err := local.Characterize(f, sel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(remoteRep), canonical(localRep)) {
		t.Errorf("table %#x: worker report diverged from the in-process one", f.Fingerprint())
	}
}

// selectThird selects the first third of f's rows.
func selectThird(f *frame.Frame) *frame.Bitmap {
	sel := frame.NewBitmap(f.NumRows())
	for i := 0; i < f.NumRows()/3; i++ {
		sel.Set(i)
	}
	return sel
}

// TestConcurrentRegistrations pins that registration holds no per-offer
// state to lose: 400 clients registering distinct tables on one worker at
// once all succeed, and every table answers like the in-process engine.
func TestConcurrentRegistrations(t *testing.T) {
	const n = 400
	cfg := testConfig()
	cfg.CacheEntries = 2 * n // keep every table resident
	router, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(router)
	ts := newTestServer(t, w)

	tables := make([]*frame.Frame, n)
	sels := make([]*frame.Bitmap, n)
	for i := range tables {
		tables[i], sels[i] = testTable(t, 1000+uint64(i))
	}
	clients := make([]*Client, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range clients {
		clients[i] = NewClient(ts.URL)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = clients[i].RegisterTable(tables[i])
		}(i)
	}
	wg.Wait()
	failed := 0
	for i, err := range errs {
		if err != nil {
			if failed++; failed <= 3 {
				t.Errorf("registration %d: %v", i, err)
			}
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d concurrent registrations failed", failed, n)
	}
	if got := w.NumTables(); got != n {
		t.Fatalf("worker holds %d tables, want %d", got, n)
	}
	for i, c := range clients {
		sameAsLocal(t, c, tables[i], sels[i])
		if got := c.Snapshot().TablesShipped; got != 1 {
			t.Fatalf("client %d shipped %d tables, want 1", i, got)
		}
	}
}

// TestTwoOffersForOneTable replays two negotiations for one grown table
// that get different offers — cold, then a 10-chunk prefix once the base
// has landed. Both streams succeed, in either order of arrival: the first
// registers the table, the second (a late duplicate) replaces nothing.
func TestTwoOffersForOneTable(t *testing.T) {
	base, _ := chunkedTable(t, 11, 640) // 10 full chunks
	grown := appendRows(t, base, 11, 128)
	w, ts := newWorker(t, 1)
	c := NewClient(ts.URL)

	first := offerFor(t, ts, grown)
	if first.Registered || first.PrefixChunks != 0 {
		t.Fatalf("cold offer = %+v, want prefix 0", first)
	}
	if err := c.RegisterTable(base); err != nil {
		t.Fatal(err)
	}
	second := offerFor(t, ts, grown)
	if second.PrefixChunks != 10 || second.Base != base.Fingerprint() {
		t.Fatalf("warm offer = %+v, want 10 chunks of base %#x", second, base.Fingerprint())
	}

	if code := postStream(t, ts, streamFor(grown, first.Base, first.PrefixChunks)); code != http.StatusOK {
		t.Fatalf("stream for the first offer: status %d, want 200", code)
	}
	stored, ok := w.table(grown.Fingerprint())
	if !ok {
		t.Fatal("first stream did not register the table")
	}
	if code := postStream(t, ts, streamFor(grown, second.Base, second.PrefixChunks)); code != http.StatusOK {
		t.Fatalf("stream for the second offer: status %d, want 200", code)
	}
	if again, _ := w.table(grown.Fingerprint()); again != stored {
		t.Error("the late second stream replaced the stored table")
	}
	if w.NumTables() != 2 {
		t.Errorf("worker holds %d tables, want base and grown", w.NumTables())
	}
	sameAsLocal(t, c, grown, selectThird(grown))
}

// TestOpenNegotiationsNeverExpire pins that phase one leaves nothing to
// evict: far more open negotiations than any bound a worker could keep,
// streamed afterwards in reverse order, all register.
func TestOpenNegotiationsNeverExpire(t *testing.T) {
	const n = 100
	w, ts := newWorker(t, 1)
	tables := make([]*frame.Frame, n)
	offers := make([]ManifestResponse, n)
	for i := range tables {
		tables[i], _ = testTable(t, 2000+uint64(i))
		offers[i] = offerFor(t, ts, tables[i])
	}
	for i := n - 1; i >= 0; i-- {
		if code := postStream(t, ts, streamFor(tables[i], offers[i].Base, offers[i].PrefixChunks)); code != http.StatusOK {
			t.Fatalf("stream %d after %d open negotiations: status %d", i, n, code)
		}
	}
	if w.NumTables() != n {
		t.Errorf("worker holds %d tables, want %d", w.NumTables(), n)
	}
}

// TestLateDuplicateStream pins that a stream for a stored fingerprint
// succeeds and replaces nothing — even when the base it names is gone.
func TestLateDuplicateStream(t *testing.T) {
	base, _ := chunkedTable(t, 12, 320)
	grown := appendRows(t, base, 12, 64)
	w, ts := newWorker(t, 1)
	c := NewClient(ts.URL)
	if err := c.RegisterTable(grown); err != nil {
		t.Fatal(err)
	}
	stored, _ := w.table(grown.Fingerprint())
	for _, stream := range [][]byte{
		streamFor(grown, 0, 0),
		streamFor(grown, base.Fingerprint(), base.FullChunks()), // base never resident
	} {
		if code := postStream(t, ts, stream); code != http.StatusOK {
			t.Errorf("duplicate stream status %d, want 200", code)
		}
		if again, _ := w.table(grown.Fingerprint()); again != stored || w.NumTables() != 1 {
			t.Error("a duplicate stream replaced the stored table")
		}
	}
}

// TestStreamChecks feeds the chunk endpoint one bad stream per check the
// worker applies to a stream that arrives with no record behind it, and
// pins each status: strict decoding and integrity failures answer 400, a
// base that is not resident 409, and none stores anything.
func TestStreamChecks(t *testing.T) {
	base, _ := chunkedTable(t, 13, 640) // 10 full chunks
	grown := appendRows(t, base, 13, 128)
	// diverged shares base's first 5 chunks, then its rows differ.
	half, _ := chunkedTable(t, 13, 320)
	diverged := appendRows(t, half, 14, 448)
	stranger, _ := chunkedTable(t, 15, 768)

	w, ts := newWorker(t, 1)
	if err := NewClient(ts.URL).RegisterTable(base); err != nil {
		t.Fatal(err)
	}
	good := streamFor(grown, base.Fingerprint(), 10)
	off := tailOffset(grown)
	flipped := append([]byte(nil), good...)
	flipped[off+3] ^= 0x10 // a cell of the first streamed chunk
	lying := BuildManifest(grown)
	lying.Fingerprint ^= 1
	hugeManifest := append([]byte(nil), good...)
	hugeManifest[4+7] = 0x7f // manifest length far past the payload
	hugePrefix := append([]byte(nil), good...)
	hugePrefix[off-1] = 0x7f

	cases := []struct {
		name   string
		stream []byte
		fp     uint64
		want   int
	}{
		{"bad magic", append([]byte("XYZ\x06"), good[4:]...), grown.Fingerprint(), http.StatusBadRequest},
		{"version skew", append([]byte("ZGC\x05"), good[4:]...), grown.Fingerprint(), http.StatusBadRequest},
		{"truncated", good[:len(good)-1], grown.Fingerprint(), http.StatusBadRequest},
		{"trailing bytes", append(append([]byte(nil), good...), 0), grown.Fingerprint(), http.StatusBadRequest},
		{"oversized manifest length", hugeManifest, grown.Fingerprint(), http.StatusBadRequest},
		{"oversized prefix", hugePrefix, grown.Fingerprint(), http.StatusBadRequest},
		{"prefix its base does not match", streamFor(stranger, base.Fingerprint(), 6), stranger.Fingerprint(), http.StatusBadRequest},
		{"prefix longer than the match", streamFor(diverged, base.Fingerprint(), 8), diverged.Fingerprint(), http.StatusBadRequest},
		{"chain check", flipped, grown.Fingerprint(), http.StatusBadRequest},
		{"fingerprint check", EncodeStream(grown, EncodeManifest(lying), 0, 0), lying.Fingerprint, http.StatusBadRequest},
		{"base not resident", streamFor(grown, 0xdead, 10), grown.Fingerprint(), http.StatusConflict},
	}
	for _, c := range cases {
		if code := postStream(t, ts, c.stream); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
		if _, ok := w.table(c.fp); ok {
			t.Errorf("%s: a rejected stream stored its table", c.name)
		}
	}
	if code := postStream(t, ts, good); code != http.StatusOK {
		t.Errorf("control stream status %d, want 200", code)
	}
	if w.NumTables() != 2 {
		t.Errorf("worker holds %d tables, want base and grown", w.NumTables())
	}
}

// TestEvictedBaseRenegotiates pins the client's side of the 409: the base
// the worker offered is evicted before the stream arrives, the worker
// answers 409, and the client asks once more and streams the whole table.
func TestEvictedBaseRenegotiates(t *testing.T) {
	base, _ := chunkedTable(t, 16, 640)
	grown := appendRows(t, base, 16, 64)
	w, _ := newWorker(t, 1)
	var armed, evicted atomic.Bool
	ts := newTestServer(t, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathChunks && armed.Load() && !evicted.Swap(true) {
			w.tables.RemoveIf(func(fp uint64) bool { return fp == base.Fingerprint() })
		}
		w.ServeHTTP(rw, r)
	}))
	c := NewClient(ts.URL)
	if err := c.RegisterTable(base); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	before := c.Snapshot()
	if err := c.RegisterTable(grown); err != nil {
		t.Fatalf("register after the base was evicted: %v", err)
	}
	if !evicted.Load() {
		t.Fatal("the base was never evicted; the setup is wrong")
	}
	after := c.Snapshot()
	if d := after.ChunksShipped - before.ChunksShipped; d != int64(grown.NumChunks()) {
		t.Errorf("renegotiated register shipped %d chunks, want all %d", d, grown.NumChunks())
	}
	if d := after.TablesShipped - before.TablesShipped; d != 1 {
		t.Errorf("renegotiated register counted %d table ships, want 1", d)
	}
	sameAsLocal(t, c, grown, selectThird(grown))
}

// TestRPCsReuseOneConnection pins that no worker RPC drops its keep-alive
// connection: registrations (cold and appended) and invalidations run
// back to back through one client open a single connection.
func TestRPCsReuseOneConnection(t *testing.T) {
	const n = 20
	w, _ := newWorker(t, 1)
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(w)
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	t.Cleanup(func() { c.Close() })

	f, _ := chunkedTable(t, 17, 320)
	for i := 0; i < n; i++ {
		if err := c.RegisterTable(f); err != nil {
			t.Fatal(err)
		}
		c.InvalidateFrame(f.Fingerprint())
		f = appendRows(t, f, 17, 64)
	}
	if got := conns.Load(); got > 1 {
		t.Errorf("%d registrations and %d invalidations opened %d connections, want 1", n, n, got)
	}
}

// TestReportRepliesReuseOneConnection pins the report replies' framing:
// characterize and cache-probe replies carry a Content-Length, the client
// reads exactly that many bytes, and back-to-back report RPCs through one
// client keep a single keep-alive connection.
func TestReportRepliesReuseOneConnection(t *testing.T) {
	const n = 20
	w, _ := newWorker(t, 1)
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(w)
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	t.Cleanup(func() { c.Close() })

	f, sel := testTable(t, 21)
	if err := c.RegisterTable(f); err != nil {
		t.Fatal(err)
	}
	want, err := c.Characterize(f, sel, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.post(nil, PathCached, EncodeRequest(Request{Fingerprint: f.Fingerprint(), Sel: sel}))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.ContentLength != int64(len(body)) {
		t.Fatalf("probe reply: Content-Length %d for %d bytes (err %v), want the exact length", resp.ContentLength, len(body), err)
	}
	for i := 0; i < n; i++ {
		rep, ok := c.CachedReport(f.Fingerprint(), sel, core.Options{})
		if !ok || !bytes.Equal(canonical(rep), canonical(want)) {
			t.Fatalf("probe %d: ok=%v or bytes diverged", i, ok)
		}
		if rep, err = c.Characterize(f, sel, core.Options{}); err != nil || !bytes.Equal(canonical(rep), canonical(want)) {
			t.Fatalf("characterize %d: err=%v or bytes diverged", i, err)
		}
	}
	if got := conns.Load(); got > 1 {
		t.Errorf("%d report RPCs opened %d connections, want 1", 2*n+2, got)
	}
}

// TestReadReplyFraming covers the reply reader's other two paths: a reply
// without a Content-Length (chunked) still decodes, and a declared length
// past maxBodyBytes is refused before anything is allocated for it.
func TestReadReplyFraming(t *testing.T) {
	f, sel := testTable(t, 22)
	want, err := mustLocal(t).Characterize(f, sel)
	if err != nil {
		t.Fatal(err)
	}
	enc := core.EncodeReport(want)
	chunked := newTestServer(t, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Write(enc[:len(enc)/2])
		rw.(http.Flusher).Flush() // commits the reply without a length
		rw.Write(enc[len(enc)/2:])
	}))
	rep, ok := NewClient(chunked.URL).CachedReport(f.Fingerprint(), sel, core.Options{})
	if !ok || !bytes.Equal(core.EncodeReport(rep), enc) {
		t.Errorf("chunked reply: ok=%v or bytes diverged", ok)
	}

	huge := newTestServer(t, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Length", fmt.Sprint(int64(maxBodyBytes)+1))
		rw.WriteHeader(http.StatusOK)
	}))
	resp, err := http.Get(huge.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := readReply(resp); err == nil {
		t.Error("readReply accepted a reply declared past maxBodyBytes")
	}
}

// mustLocal builds a one-shard in-process router.
func mustLocal(t testing.TB) *shard.Router {
	t.Helper()
	r, err := shard.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}
