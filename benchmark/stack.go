package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/frame"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
)

// numWorkers is the worker count of the serving stack.
const numWorkers = 2

// workerCacheBytes bounds each worker's cache tiers and table store, as
// ziggyd -cache-bytes does. The default budget (256 MiB per tier) lets the
// append workload's table versions grow a worker past a gigabyte before
// eviction starts; this bound keeps every workload's footprint small while
// the previous version of each grown table, the base of its delta ship,
// stays resident.
const workerCacheBytes = 64 << 20

// loopback is one HTTP server on a loopback port.
type loopback struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

// close stops the server, drops its connections and waits for Serve to
// return.
func (l *loopback) close() {
	l.srv.Close()
	<-l.done
}

// workerSet is the stack's workers: each a remote.Worker over a one-shard,
// parallelism-1 router, served on its own loopback port.
type workerSet struct {
	workers []*remote.Worker
	servers []*loopback
}

func startWorkers(cfg core.Config, tr *tracer) (*workerSet, error) {
	cfg.Shards, cfg.Parallelism, cfg.CacheBytes = 1, 1, workerCacheBytes
	ws := &workerSet{}
	for i := 0; i < numWorkers; i++ {
		reports := core.NewReportCache(cfg.CacheEntries, cfg.CacheBytes)
		eb, err := shard.NewEngineBackend(cfg, reports, shard.Params{})
		if err != nil {
			ws.close()
			return nil, err
		}
		router, err := shard.NewWithBackends(cfg, reports, []shard.Backend{tr.backend("worker.shard", eb)})
		if err != nil {
			ws.close()
			return nil, err
		}
		w := remote.NewWorker(router)
		l, err := listen(tr.worker(w))
		if err != nil {
			ws.close()
			return nil, err
		}
		ws.workers = append(ws.workers, w)
		ws.servers = append(ws.servers, l)
	}
	return ws, nil
}

// clients returns one remote backend per worker, for a front router.
func (ws *workerSet) clients(tr *tracer) []shard.Backend {
	var out []shard.Backend
	for _, l := range ws.servers {
		out = append(out, tr.backend("shard", remote.NewClient(l.addr)))
	}
	return out
}

func (ws *workerSet) close() {
	for _, l := range ws.servers {
		l.close()
	}
}

// workerTotals sums the workers' counters: their report and prepared
// tiers, and the characterizations each executed.
type workerTotals struct {
	cache     core.CacheStats
	completed []int64
}

func (ws *workerSet) totals() workerTotals {
	var t workerTotals
	for _, w := range ws.workers {
		st := w.Router().Stats()
		tot := st.Totals()
		t.cache.Prepared = core.AddSnapshots(t.cache.Prepared, tot.Prepared)
		t.cache.Reports = core.AddSnapshots(t.cache.Reports, tot.Reports)
		var done int64
		for _, sh := range st.Shards {
			done += sh.Completed
		}
		t.completed = append(t.completed, done)
	}
	return t
}

// setCacheMetrics records the memo and shard counters the workers moved
// during the measured phase.
func (m metrics) setCacheMetrics(before, after workerTotals) {
	rep, prep := after.cache.Reports, after.cache.Prepared
	rep0, prep0 := before.cache.Reports, before.cache.Prepared
	repReq := float64(rep.Requests() - rep0.Requests())
	prepReq := float64(prep.Requests() - prep0.Requests())
	m.set("memo.report_hit_ratio", ratio(float64(rep.Hits-rep0.Hits), repReq), int(repReq))
	m.set("memo.prepared_hit_ratio", ratio(float64(prep.Hits-prep0.Hits), prepReq), int(prepReq))
	m.set("memo.evictions", float64(rep.Evictions-rep0.Evictions+prep.Evictions-prep0.Evictions), int(repReq+prepReq))
	m.set("memo.dedup", float64(rep.Deduped-rep0.Deduped+prep.Deduped-prep0.Deduped), int(repReq+prepReq))
	var total, busiest int64
	for i := range after.completed {
		d := after.completed[i] - before.completed[i]
		total += d
		busiest = max(busiest, d)
	}
	m.set("shard.busiest_share", ratio(float64(busiest), float64(total)), int(total))
}

// httpStack is the full serving stack: the demo server's front routing to
// the workers over RPC.
type httpStack struct {
	workers *workerSet
	router  *shard.Router
	front   *loopback
	client  *client
}

func startHTTPStack(cfg core.Config, tables []*frame.Frame, tr *tracer) (*httpStack, error) {
	catalog := db.NewCatalog()
	for _, f := range tables {
		if err := catalog.Register(f); err != nil {
			return nil, err
		}
	}
	ws, err := startWorkers(cfg, tr)
	if err != nil {
		return nil, err
	}
	router, err := shard.NewWithBackends(cfg, nil, ws.clients(tr))
	if err != nil {
		ws.close()
		return nil, err
	}
	front, err := listen(tr.front(server.New(catalog, router, nil)))
	if err != nil {
		router.Close()
		ws.close()
		return nil, err
	}
	return &httpStack{workers: ws, router: router, front: front, client: newClient("http://"+front.addr+"/api/characterize", tr)}, nil
}

func (s *httpStack) close() {
	s.client.close()
	s.front.close()
	s.router.Close()
	s.workers.close()
}

// client is the load generator's side of the wire: at most sessions
// connections to the front.
type client struct {
	hc  *http.Client
	url string
	tr  *tracer
	ids atomic.Uint64
}

func newClient(url string, tr *tracer) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: sessions, MaxIdleConnsPerHost: sessions, DisableCompression: true}},
		url: url,
		tr:  tr,
	}
}

// do posts one characterize request and returns the status and body. On a
// traced run it records the client.request span, which roots the request's
// span tree.
func (c *client) do(q *query) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(q.body()))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id uint64
	var start int64
	if c.tr != nil {
		id = c.ids.Add(1)
		req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
		start = c.tr.now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.tr != nil {
		c.tr.add(span{Name: "client.request", Start: start, End: c.tr.now(), Req: id, key: q.key, table: q.tableFP})
	}
	return resp.StatusCode, body, err
}

// warm serves every query once over all connections and requires success:
// it ships the tables and fills the caches the workload relies on.
func (c *client) warm(qs []query) error {
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := s; i < len(qs); i += sessions {
				status, body, err := c.do(&qs[i])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
				}
				if err != nil {
					errs[s] = fmt.Errorf("warming %q: %w", qs[i].id(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (c *client) close() { c.hc.CloseIdleConnections() }
