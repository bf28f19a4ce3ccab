package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/stats"
)

// Threshold queries draw their quantile in [qMin, qMax], as internal/load
// does.
const (
	qMin = 0.10
	qMax = 0.90
)

// excludeShare is the share of requests that set excludePredicate.
const excludeShare = 0.5

// genTable is a table as the query generator sees it: the numeric columns a
// threshold query may select on, with their sorted non-NULL values.
type genTable struct {
	frame  *frame.Frame
	cols   []string
	sorted map[string][]float64
}

func newGenTable(f *frame.Frame) (*genTable, error) {
	t := &genTable{frame: f, sorted: map[string][]float64{}}
	for _, ci := range f.NumericColumns() {
		name := f.Col(ci).Name()
		sorted, err := f.SortedNumeric(name)
		if err != nil || len(sorted) < 20 || stats.Quantile(sorted, qMin) >= stats.Quantile(sorted, qMax) {
			continue
		}
		t.cols = append(t.cols, name)
		t.sorted[name] = sorted
	}
	if len(t.cols) == 0 {
		return nil, fmt.Errorf("table %q has no column for threshold queries", f.Name())
	}
	return t, nil
}

// query is one characterize request: a threshold query on one table.
type query struct {
	table   string
	sql     string
	col     string
	in      int // rows the predicate selects
	exclude bool
	// key and tableFP link the request to the spans it causes; they are
	// filled only on traced runs.
	key, tableFP uint64
}

// id is the request's identity: repeats of one id must answer the same
// bytes.
func (q query) id() string {
	if q.exclude {
		return q.sql + " [exclude]"
	}
	return q.sql
}

// opts are the engine options of the request as a session issues it: the
// server derives the same exclusion from excludePredicate.
func (q query) opts() core.Options {
	if q.exclude {
		return core.Options{ExcludeColumns: []string{q.col}}
	}
	return core.Options{}
}

// body is the /api/characterize request body.
func (q query) body() []byte {
	b, _ := json.Marshal(struct {
		SQL              string `json:"sql"`
		ExcludePredicate bool   `json:"excludePredicate"`
	}{q.sql, q.exclude})
	return b
}

// generator draws threshold queries. It is not safe for concurrent use.
type generator struct {
	minRows int
	// rejected counts draws discarded because they left fewer than minRows
	// rows on a side of the split.
	rejected int
	// seen holds the fresh requests already drawn (table, column, selected
	// rows, exclusion), so a fresh request never repeats an earlier one.
	seen map[string]bool
}

func newGenerator() *generator {
	return &generator{minRows: core.DefaultConfig().MinRows, seen: map[string]bool{}}
}

// draw returns one threshold query on t whose selection keeps at least
// minRows rows on each side. The engine answers any other selection with an
// error (HTTP 422), so an unguarded draw would count as a failed request.
func (g *generator) draw(r *randx.Source, t *genTable) query {
	for {
		col := t.cols[r.Intn(len(t.cols))]
		s := t.sorted[col]
		thr := stats.Quantile(s, qMin+r.Float64()*(qMax-qMin))
		in := len(s) - sort.SearchFloat64s(s, thr)
		if in < g.minRows || t.frame.NumRows()-in < g.minRows {
			g.rejected++
			continue
		}
		return query{
			table: t.frame.Name(),
			sql:   fmt.Sprintf("SELECT * FROM %s WHERE %s >= %s", t.frame.Name(), col, strconv.FormatFloat(thr, 'g', -1, 64)),
			col:   col,
			in:    in,
		}
	}
}

// fresh draws a request whose selection and exclusion no earlier fresh
// request had, so the report cache has never seen it.
func (g *generator) fresh(r *randx.Source, t *genTable) query {
	for tries := 0; ; tries++ {
		q := g.draw(r, t)
		q.exclude = r.Bernoulli(excludeShare)
		key := fmt.Sprintf("%s|%s|%d|%t", q.table, q.col, q.in, q.exclude)
		// A tiny table can run out of unseen selections; past that point a
		// repeat is better than spinning.
		if !g.seen[key] || tries >= 1000 {
			g.seen[key] = true
			return q
		}
	}
}

// pool draws n queries with distinct selections on t: the shared queries
// explorers re-run.
func (g *generator) pool(r *randx.Source, t *genTable, n int) []query {
	seen := map[string]bool{}
	var out []query
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		q := g.draw(r, t)
		key := fmt.Sprintf("%s|%d", q.col, q.in)
		if !seen[key] {
			seen[key] = true
			out = append(out, q)
		}
	}
	return out
}

// stream is a workload's deterministic request sequence, shared by its
// sessions: whichever session is free takes the next request, so the
// sequence, though not its split across sessions, is a pure function of
// the seed.
type stream struct {
	mu   sync.Mutex
	next func() query
}

func (s *stream) take() query {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

// poolStream repeats pool entries: a uniformly drawn table, entry and
// exclusion per request.
func poolStream(r *randx.Source, pools [][]query) *stream {
	return &stream{next: func() query {
		pool := pools[r.Intn(len(pools))]
		q := pool[r.Intn(len(pool))]
		q.exclude = r.Bernoulli(excludeShare)
		return q
	}}
}

// freshStream never repeats a request; each request's table is drawn with
// the given weights.
func freshStream(r *randx.Source, g *generator, tables []*genTable, weights []float64) *stream {
	return &stream{next: func() query {
		return g.fresh(r, tables[r.Categorical(weights)])
	}}
}

// withBoth returns every query in both exclusion variants: what a set-up
// warms so that every repeat is a report-cache hit.
func withBoth(pools [][]query) []query {
	var out []query
	for _, pool := range pools {
		for _, q := range pool {
			q.exclude = false
			out = append(out, q)
			q.exclude = true
			out = append(out, q)
		}
	}
	return out
}

// mix derives a child seed from its parts (splitmix64 over their chain), so
// each purpose draws from its own stream.
func mix(parts ...uint64) uint64 {
	h := uint64(0x6a09e667f3bcc909)
	for _, p := range parts {
		h ^= p
		h += 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Stream tags for mix.
const (
	tagPool uint64 = iota + 1
	tagStream
	tagArrivals
	tagTail
	tagWriter
	tagReader
)
