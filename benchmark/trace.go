package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/remote"
	"repro/internal/shard"
)

// requestIDHeader carries the generator's request ID to the front, whose
// handler span records it.
const requestIDHeader = "X-Bench-Request"

// span is one timed call into a layer. Spans are recorded by wrappers this
// package puts around the layers' public interfaces; fold links each span
// to the one that caused it.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent is the index of the causing span, -1 for a root or a span
	// fold could not link; Req is the ID of the request the span served.
	Parent int    `json:"parent"`
	Req    uint64 `json:"request"`

	key     uint64 // requestKey of the characterize request
	table   uint64 // table fingerprint
	hit     bool   // a cache probe answered
	exec    bool   // a characterization ran the pipeline
	prepHit bool   // the pipeline found the prepared structures cached
	prep    int64  // report stage timings of an executed characterization
	search  int64
	post    int64
}

func (s *span) dur() int64 { return s.End - s.Start }

// requestKey identifies a characterize request below the front, where only
// the table fingerprint, the selection bitmap and the options are left. The
// generator computes the same key from the query, which is how deeper spans
// find their request.
func requestKey(table uint64, sel *frame.Bitmap, opts core.Options) uint64 {
	k := table*0x9e3779b97f4a7c15 ^ sel.Fingerprint()
	if len(opts.ExcludeColumns) > 0 {
		k = ^k
	}
	return k
}

// tracer keeps spans in memory. A nil tracer records nothing and installs
// no wrappers, which is how the untraced run stays unwrapped.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans of an earlier set-up.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// dump writes the spans as a JSON array.
func (t *tracer) dump(file string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(file, data, 0o644)
}

// backend wraps b so every call is a span named "<layer>.<operation>".
func (t *tracer) backend(layer string, b shard.Backend) shard.Backend {
	if t == nil {
		return b
	}
	return &tracedBackend{Backend: b, tr: t, layer: layer}
}

type tracedBackend struct {
	shard.Backend
	tr    *tracer
	layer string
}

func (b *tracedBackend) CachedReport(fp uint64, sel *frame.Bitmap, opts core.Options) (*core.Report, bool) {
	start := b.tr.now()
	rep, ok := b.Backend.CachedReport(fp, sel, opts)
	end := b.tr.now()
	b.tr.add(span{Name: b.layer + ".probe", Start: start, End: end, key: requestKey(fp, sel, opts), table: fp, hit: ok})
	return rep, ok
}

func (b *tracedBackend) RegisterTable(f *frame.Frame) error {
	start := b.tr.now()
	err := b.Backend.RegisterTable(f)
	end := b.tr.now()
	b.tr.add(span{Name: b.layer + ".register", Start: start, End: end, table: f.Fingerprint()})
	return err
}

func (b *tracedBackend) Characterize(f *frame.Frame, sel *frame.Bitmap, opts core.Options) (*core.Report, error) {
	start := b.tr.now()
	rep, err := b.Backend.Characterize(f, sel, opts)
	s := span{Name: b.layer + ".characterize", Start: start, End: b.tr.now(), table: f.Fingerprint()}
	s.key = requestKey(s.table, sel, opts)
	if err == nil && !rep.ReportCacheHit {
		s.exec, s.prepHit = true, rep.CacheHit
		s.prep, s.search, s.post = int64(rep.Timings.Preparation), int64(rep.Timings.Search), int64(rep.Timings.Post)
	}
	b.tr.add(s)
	return rep, err
}

func (b *tracedBackend) InvalidateFrame(fp uint64) {
	start := b.tr.now()
	b.Backend.InvalidateFrame(fp)
	b.tr.add(span{Name: b.layer + ".invalidate", Start: start, End: b.tr.now(), table: fp})
}

// front wraps the front's handler: one server.handle span per request,
// carrying the generator's request ID.
func (t *tracer) front(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{Name: "server.handle", Start: start, End: t.now(), Req: id})
	})
}

// worker wraps a worker's handler: one remote.handle.<endpoint> span per
// RPC. Cache probes and characterizations carry the request key, decoded
// from a copy of the body once the handler is done.
func (t *tracer) worker(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
		s := span{Name: "remote.handle." + path.Base(r.URL.Path), Start: start, End: t.now()}
		if r.URL.Path == remote.PathCached || r.URL.Path == remote.PathCharacterize {
			if req, err := remote.DecodeRequest(body); err == nil {
				s.key = requestKey(req.Fingerprint, req.Sel, req.Opts)
			}
		}
		t.add(s)
	})
}

// Link rules: how fold finds the span that caused a span.
const (
	byReq   = iota // same request ID
	byKey          // same request key, enclosing in time
	byTable        // same table fingerprint, enclosing in time
	byTime         // enclosing in time
)

type linkRule struct {
	parents []string
	by      int
}

// linkRules lists, for each span name, the names of the spans that can
// cause it. Front spans find their request through the request key the
// generator computed; worker spans find the front call through the same
// key; shipping and invalidation RPCs find theirs by time alone, as only
// the writer ships or invalidates.
var linkRules = map[string]linkRule{
	"server.handle":              {[]string{"client.request"}, byReq},
	"session.append":             {[]string{"client.request"}, byReq},
	"shard.probe":                {[]string{"server.handle", "client.request"}, byKey},
	"shard.characterize":         {[]string{"server.handle", "client.request"}, byKey},
	"shard.register":             {[]string{"server.handle", "client.request"}, byTable},
	"shard.invalidate":           {[]string{"session.append"}, byTime},
	"remote.handle.cached":       {[]string{"shard.probe"}, byKey},
	"remote.handle.characterize": {[]string{"shard.characterize"}, byKey},
	"remote.handle.manifest":     {[]string{"shard.register"}, byTime},
	"remote.handle.chunks":       {[]string{"shard.register"}, byTime},
	"remote.handle.invalidate":   {[]string{"shard.invalidate"}, byTime},
	"worker.shard.probe":         {[]string{"remote.handle.cached", "remote.handle.characterize"}, byKey},
	"worker.shard.characterize":  {[]string{"remote.handle.characterize"}, byKey},
}

// folded is the linked span tree of a traced run.
type folded struct {
	spans []span
	self  []int64 // span duration minus the time its children cover
	root  []int   // index of the client.request span at the top, -1 if none
	kids  [][]int
}

type nameKey struct {
	name string
	k    uint64
}

// fold links every span to its cause and computes self times. Requests
// sent before from (the set-up's warm requests) root no tree.
func (t *tracer) fold(from int64) *folded {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f := &folded{spans: spans, self: make([]int64, len(spans)), root: make([]int, len(spans)), kids: make([][]int, len(spans))}
	for i := range spans {
		spans[i].Parent = -1
	}

	clients := map[uint64]int{}
	for i, s := range spans {
		if s.Name == "client.request" {
			clients[s.Req] = i
		}
	}
	for i := range spans {
		if r, ok := linkRules[spans[i].Name]; ok && r.by == byReq {
			if p, ok := clients[spans[i].Req]; ok {
				spans[i].Parent = p
				spans[i].key, spans[i].table = spans[p].key, spans[p].table
			}
		}
	}

	// Indexes of candidate parents, each in start order.
	byName := map[string][]int{}
	byKeyIdx := map[nameKey][]int{}
	byTableIdx := map[nameKey][]int{}
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], i)
		byKeyIdx[nameKey{s.Name, s.key}] = append(byKeyIdx[nameKey{s.Name, s.key}], i)
		byTableIdx[nameKey{s.Name, s.table}] = append(byTableIdx[nameKey{s.Name, s.table}], i)
	}
	for i := range spans {
		c := &spans[i]
		r, ok := linkRules[c.Name]
		if !ok || r.by == byReq {
			continue
		}
		best := -1
		for _, pn := range r.parents {
			var cands []int
			switch r.by {
			case byKey:
				cands = byKeyIdx[nameKey{pn, c.key}]
			case byTable:
				cands = byTableIdx[nameKey{pn, c.table}]
			default:
				cands = byName[pn]
			}
			if p := enclosing(spans, cands, c); p >= 0 && (best < 0 || spans[p].Start > spans[best].Start) {
				best = p
			}
		}
		c.Parent = best
	}

	for i := range spans {
		f.self[i] = spans[i].dur()
	}
	for i, s := range spans {
		if s.Parent >= 0 {
			f.self[s.Parent] -= s.dur()
			f.kids[s.Parent] = append(f.kids[s.Parent], i)
		}
	}
	for i := range spans {
		f.root[i] = -2
	}
	var rootOf func(i int) int
	rootOf = func(i int) int {
		if f.root[i] != -2 {
			return f.root[i]
		}
		switch p := spans[i].Parent; {
		case spans[i].Name == "client.request" && spans[i].Start >= from:
			f.root[i] = i
		case spans[i].Name == "client.request" || p < 0:
			f.root[i] = -1
		default:
			f.root[i] = rootOf(p)
		}
		return f.root[i]
	}
	for i := range spans {
		if r := rootOf(i); r >= 0 {
			spans[i].Req = spans[r].Req
		}
	}
	t.mu.Lock()
	t.spans = spans
	t.mu.Unlock()
	return f
}

// enclosing returns the latest-starting candidate whose interval contains
// c's, or -1. cands are in start order.
func enclosing(spans []span, cands []int, c *span) int {
	n := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > c.Start })
	// Only a few spans of one name and key overlap at a time, so the
	// enclosing one is among the latest starters.
	for k := n - 1; k >= 0 && k >= n-64; k-- {
		p := &spans[cands[k]]
		if p.End >= c.End && p != c {
			return cands[k]
		}
	}
	return -1
}

// linked reports whether span i belongs to a measured request.
func (f *folded) linked(i int) bool { return f.root[i] >= 0 }

// durs and selfs collect the durations or self times, in ms, of linked
// spans named name that satisfy keep (nil keeps all).
func (f *folded) durs(name string, keep func(i int) bool) []float64 {
	return f.collect(name, keep, func(i int) int64 { return f.spans[i].dur() })
}

func (f *folded) selfs(name string, keep func(i int) bool) []float64 {
	return f.collect(name, keep, func(i int) int64 { return f.self[i] })
}

func (f *folded) collect(name string, keep func(i int) bool, val func(i int) int64) []float64 {
	var out []float64
	for i, s := range f.spans {
		if s.Name == name && f.linked(i) && (keep == nil || keep(i)) {
			out = append(out, float64(val(i))/1e6)
		}
	}
	return out
}

func (f *folded) hasKids(i int) bool { return len(f.kids[i]) > 0 }

// layerMetrics computes the span-derived per-layer metrics.
func (f *folded) layerMetrics(m metrics) {
	m.setQuantile("client.self_ms", f.selfs("client.request", nil), 0.5)
	m.setQuantile("server.self_ms", f.selfs("server.handle", nil), 0.5)

	probes := f.durs("shard.probe", nil)
	hits := len(f.durs("shard.probe", func(i int) bool { return f.spans[i].hit }))
	m.set("shard.probe_hit_ratio", ratio(float64(hits), float64(len(probes))), len(probes))
	m.setQuantile("shard.probe_ms", probes, 0.5)
	m.setQuantile("shard.characterize_ms", f.durs("shard.characterize", nil), 0.5)

	// Registration is set-up work as much as request work, so every
	// registration since the last set-up began counts.
	var register float64
	n := 0
	for _, s := range f.spans {
		if s.Name == "shard.register" {
			register += float64(s.dur()) / 1e6
			n++
		}
	}
	m.set("shard.register_ms", register, n)

	var wait []float64
	for i, s := range f.spans {
		if s.Name == "worker.shard.characterize" && s.exec && f.linked(i) {
			wait = append(wait, float64(s.dur()-s.prep-s.search-s.post)/1e6)
		}
	}
	m.setQuantile("shard.admit_wait_ms", wait, 0.9)

	m.setQuantile("remote.probe_overhead_ms", f.selfs("shard.probe", f.hasKids), 0.5)
	m.setQuantile("remote.rpc_overhead_ms", f.selfs("shard.characterize", f.hasKids), 0.5)
	m.setQuantile("remote.worker_self_ms", f.selfs("remote.handle.characterize", nil), 0.5)
	var ship []float64
	for i, s := range f.spans {
		if s.Name != "shard.register" || !f.linked(i) {
			continue
		}
		var d int64
		for _, k := range f.kids[i] {
			d += f.spans[k].dur()
		}
		if len(f.kids[i]) > 0 {
			ship = append(ship, float64(d)/1e6)
		}
	}
	m.setQuantile("remote.ship_ms", ship, 0.5)
	m.setQuantile("remote.invalidate_ms", f.durs("shard.invalidate", nil), 0.5)

	stage := func(keep func(s *span) bool, val func(s *span) int64) []float64 {
		var out []float64
		for i := range f.spans {
			if s := &f.spans[i]; s.Name == "worker.shard.characterize" && s.exec && f.linked(i) && keep(s) {
				out = append(out, float64(val(s))/1e6)
			}
		}
		return out
	}
	all := func(*span) bool { return true }
	m.setQuantile("core.prepare_hit_ms", stage(func(s *span) bool { return s.prepHit }, func(s *span) int64 { return s.prep }), 0.5)
	m.setQuantile("core.prepare_miss_ms", stage(func(s *span) bool { return !s.prepHit }, func(s *span) int64 { return s.prep }), 0.5)
	m.setQuantile("core.search_ms", stage(all, func(s *span) int64 { return s.search }), 0.5)
	m.setQuantile("core.post_ms", stage(all, func(s *span) int64 { return s.post }), 0.5)
	m.setQuantile("frame.append_ms", f.selfs("session.append", nil), 0.5)
}

// selfBreakdown returns each span name's mean self time per measured
// request, the mean client latency, and the share of the layer spans that
// started in the measured phase (at from or later) which fold linked to a
// request. The self times of one request's spans add up to its latency, so
// the breakdown sums to the mean client latency.
func (f *folded) selfBreakdown(from int64) (self map[string]float64, clientMs, linked float64) {
	self = map[string]float64{}
	roots, layer, linkedN := 0, 0, 0
	for i, s := range f.spans {
		if s.Name == "client.request" {
			if f.linked(i) {
				roots++
				clientMs += float64(s.dur()) / 1e6
			}
		} else if _, ok := linkRules[s.Name]; ok && s.Start >= from {
			layer++
			if f.linked(i) {
				linkedN++
			}
		}
		if f.linked(i) {
			self[s.Name] += float64(f.self[i]) / 1e6
		}
	}
	if roots == 0 {
		return nil, 0, 0
	}
	for n := range self {
		self[n] /= float64(roots)
	}
	return self, clientMs / float64(roots), ratio(float64(linkedN), float64(layer))
}
