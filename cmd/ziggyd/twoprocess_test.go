package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	ziggy "repro"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/shard"
)

// TestTwoProcessSmoke is the end-to-end proof that the distribution layer
// works between real processes: it builds the ziggyd binary, starts a
// `ziggyd -worker`, points a front `ziggyd -peers` at it, runs a
// characterize plus two cached repeats over the HTTP API (the first
// answered by the worker's report cache, the second by the front's own),
// and asserts the responses match the checked-in golden bytes — i.e. a
// two-process deployment is byte-identical to the single-process one the
// golden suite pins. CI runs it as the dedicated smoke job.
func TestTwoProcessSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not in PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "ziggyd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ziggyd: %v\n%s", err, out)
	}

	workerAddr := startDaemon(t, bin, "-worker", "-addr", "127.0.0.1:0", "-parallelism", "1")
	frontAddr := startDaemon(t, bin, "-peers", workerAddr, "-addr", "127.0.0.1:0",
		"-datasets", "boxoffice", "-seed", "1", "-parallelism", "1")

	// The same query the golden suite pins, cold then cached.
	const query = `{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100", "excludePredicate": true}`
	cold := postSmoke(t, frontAddr, query)
	checkGolden(t, "characterize_cold.json", cold)

	cached := postSmoke(t, frontAddr, query)
	var rep struct {
		CacheHit       bool `json:"cacheHit"`
		ReportCacheHit bool `json:"reportCacheHit"`
	}
	if err := json.Unmarshal(cached, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit || !rep.ReportCacheHit {
		t.Errorf("repeat across processes not served from the worker's report cache: %s", cached)
	}
	checkGolden(t, "characterize_cached.json", cached)

	// A third identical request is answered by the front's own report tier,
	// filled from the second request's worker-cache hit: same bytes, no RPC.
	third := postSmoke(t, frontAddr, query)
	checkGolden(t, "characterize_cached.json", third)

	// The front's stats must show one remote worker, healthy, with exactly
	// one table shipment — the repeat was answered from the worker's cache
	// without the table crossing the wire again.
	resp, err := http.Get("http://" + frontAddr + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		// Reports sums the front's own report tier and the worker's.
		Reports struct {
			Hits, Misses int64
		} `json:"reports"`
		ShardCount int `json:"shardCount"`
		Shards     []struct {
			Kind          string `json:"kind"`
			Healthy       bool   `json:"healthy"`
			Requests      int64  `json:"requests"`
			TablesShipped int64  `json:"tablesShipped"`
			Reports       struct {
				Hits, Misses int64
			} `json:"reports"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.ShardCount != 1 || len(stats.Shards) != 1 {
		t.Fatalf("front shard breakdown = %+v, want exactly the one worker", stats)
	}
	sh := stats.Shards[0]
	if sh.Kind != "remote" || !sh.Healthy {
		t.Errorf("worker entry = %+v, want healthy remote", sh)
	}
	if sh.TablesShipped != 1 {
		t.Errorf("tables shipped = %d, want 1 (cached repeat must not re-ship)", sh.TablesShipped)
	}
	if sh.Reports.Hits != 1 || sh.Reports.Misses != 1 {
		t.Errorf("worker reports tier = %+v, want 1 hit / 1 miss", sh.Reports)
	}
	// The front tier is the total less the worker's tier: the third request
	// was its one hit, and no third RPC reached the worker.
	if hits, misses := stats.Reports.Hits-sh.Reports.Hits, stats.Reports.Misses-sh.Reports.Misses; hits != 1 || misses != 0 {
		t.Errorf("front reports tier = %d hits / %d misses (total %+v), want 1 / 0", hits, misses, stats.Reports)
	}
}

// servingLine extracts the bound address from ziggyd's startup log.
var servingLine = regexp.MustCompile(`serving on ([0-9.:\[\]]+)$`)

// startDaemon launches the binary, waits for its "serving on" log line, and
// returns the bound host:port. The process is killed at test cleanup.
func startDaemon(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	addrCh := make(chan string, 1)
	go func() {
		scanner := bufio.NewScanner(stderr)
		for scanner.Scan() {
			line := scanner.Text()
			if m := servingLine.FindStringSubmatch(line); m != nil {
				addrCh <- m[1]
			}
		}
	}()
	select {
	case addr := <-addrCh:
		addr = strings.Replace(addr, "[::]", "127.0.0.1", 1)
		// Wait for the listener to actually accept.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get("http://" + addr + "/api/worker/health")
			if err == nil {
				resp.Body.Close()
				return addr
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("daemon at %s never became reachable", addr)
		return ""
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon %s %v never logged its serving address", bin, args)
		return ""
	}
}

// postSmoke posts a characterize request to a live daemon and returns the
// body, failing the test on a non-200.
func postSmoke(t *testing.T, addr, body string) []byte {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/api/characterize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("characterize status %d: %s", resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// TestTwoProcessAppendShipsChunks extends the smoke test to the delta
// transport: a front session appends to a table already shipped to a real
// worker process and the chunk/byte meters prove only the new chunks crossed
// the wire — while the reports stay byte-identical to a purely local session.
func TestTwoProcessAppendShipsChunks(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not in PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "ziggyd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ziggyd: %v\n%s", err, out)
	}
	workerAddr := startDaemon(t, bin, "-worker", "-addr", "127.0.0.1:0", "-parallelism", "1")

	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	front, err := ziggy.New(cfg, ziggy.WithPeers(workerAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	local, err := ziggy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A 10-chunk table at the minimum chunk capacity; the append adds one.
	base := smokeTable(t, 0, 640)
	tail := smokeTable(t, 640, 64)
	for _, s := range []*ziggy.Session{front, local} {
		if err := s.Register(base); err != nil {
			t.Fatal(err)
		}
	}

	const query = "SELECT * FROM smoke WHERE c0 >= 0.5"
	rep, err := front.Characterize(query)
	if err != nil {
		t.Fatal(err)
	}
	localRep, err := local.Characterize(query)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalSmoke(rep.Report), canonicalSmoke(localRep.Report)) {
		t.Error("cold two-process report diverged from the local session")
	}
	cold := shipMeter(t, front)
	if cold.TablesShipped != 1 || cold.ChunksShipped != int64(base.NumChunks()) {
		t.Fatalf("cold meters = %+v, want 1 table / %d chunks", cold, base.NumChunks())
	}

	for _, s := range []*ziggy.Session{front, local} {
		if err := s.Append("smoke", tail); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = front.Characterize(query)
	if err != nil {
		t.Fatal(err)
	}
	localRep, err = local.Characterize(query)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalSmoke(rep.Report), canonicalSmoke(localRep.Report)) {
		t.Error("post-append two-process report diverged from the local session")
	}
	warm := shipMeter(t, front)
	if d := warm.ChunksShipped - cold.ChunksShipped; d != 1 {
		t.Errorf("append shipped %d chunks over the real wire, want 1", d)
	}
	if d := warm.BytesShipped - cold.BytesShipped; d <= 0 || d >= cold.BytesShipped/4 {
		t.Errorf("append shipped %d bytes (cold ship %d), want o(table size)", d, cold.BytesShipped)
	}
}

// smokeTable builds rows [lo, lo+n) of a deterministic 3-column table at the
// minimum chunk capacity, so separately built slices append seamlessly.
func smokeTable(t *testing.T, lo, n int) *frame.Frame {
	t.Helper()
	cols := make([]*frame.Column, 0, 3)
	for c := 0; c < 3; c++ {
		vals := make([]float64, n)
		for i := range vals {
			r := lo + i
			vals[i] = float64((r*(c+7)+r*r%101)%97) / 97
		}
		cols = append(cols, frame.NewNumericColumn(fmt.Sprintf("c%d", c), vals))
	}
	f, err := frame.NewChunked("smoke", cols, 64)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// canonicalSmoke mirrors the remote package's canonical(): volatile fields
// neutralized, then the deterministic wire encoding.
func canonicalSmoke(rep *core.Report) []byte {
	c := *rep
	c.Timings = core.Timings{}
	c.CacheHit = false
	c.ReportCacheHit = false
	return core.EncodeReport(&c)
}

// shipMeter returns the front's single remote shard snapshot.
func shipMeter(t *testing.T, s *ziggy.Session) shard.ShardSnapshot {
	t.Helper()
	ss := s.ShardStats()
	if len(ss.Shards) != 1 || ss.Shards[0].Kind != shard.KindRemote {
		t.Fatalf("front shards = %+v, want exactly one remote", ss.Shards)
	}
	return ss.Shards[0]
}
