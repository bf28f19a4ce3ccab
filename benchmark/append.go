package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ziggy "repro"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/synth"
)

// growTables generates the append workload's three chunked micro tables in
// their initial content.
func growTables(sz sizes) ([]*frame.Frame, error) {
	var out []*frame.Frame
	for i := 0; i < 3; i++ {
		f := synth.Micro(fmt.Sprintf("grow%d", i), uint64(i+1), sz.growRows, sz.growCols)
		c, err := frame.NewChunked(f.Name(), f.Columns(), sz.chunkRows)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// appendPlan is the append workload's inputs, a pure function of the seed.
// The writer's operations are drawn in order by the one writer goroutine.
type appendPlan struct {
	seed      uint64
	sz        sizes
	bases     []*genTable // the generator's copies of the grown tables
	crime     *genTable
	gw, gr    *generator
	rw        *randx.Source
	reader    *stream
	warm      []query // one per grown table, served by the writer
	readerHot query   // served by the reader during set-up
}

func newAppendPlan(env *runEnv) (*appendPlan, error) {
	frames, err := growTables(env.sz)
	if err != nil {
		return nil, err
	}
	bases, err := genTables(frames)
	if err != nil {
		return nil, err
	}
	crime, err := newGenTable(synth.USCrime(1))
	if err != nil {
		return nil, err
	}
	p := &appendPlan{
		seed: env.seed, sz: env.sz, bases: bases, crime: crime,
		gw: newGenerator(), gr: newGenerator(),
		rw: randx.New(mix(env.seed, tagWriter)),
	}
	rr := randx.New(mix(env.seed, tagReader))
	p.readerHot = p.gr.fresh(rr, crime)
	p.reader = freshStream(rr, p.gr, []*genTable{crime}, []float64{1})
	for _, t := range bases {
		p.warm = append(p.warm, p.gw.draw(p.rw, t))
	}
	return p, nil
}

// op returns the writer's k-th operation: the table it appends to and the
// fresh query that characterizes the grown table.
func (p *appendPlan) op(k int) (int, query) {
	t := k % len(p.bases)
	q := p.gw.draw(p.rw, p.bases[t])
	q.exclude = p.rw.Bernoulli(excludeShare)
	return t, q
}

// tail returns the rows the writer's k-th operation appends.
func (p *appendPlan) tail(k int) *frame.Frame {
	t := k % len(p.bases)
	return synth.Micro(p.bases[t].frame.Name(), mix(p.seed, tagTail, uint64(k)), p.sz.tailRows, p.sz.growCols)
}

// cycleOps is the number of writer operations between resets: every table
// grows by cycle appends, then all return to their initial content. Resets
// keep the table sizes, and so the cost of an append, independent of how
// many operations a run completes.
func (p *appendPlan) cycleOps() int { return len(p.bases) * p.sz.cycle }

func appendSchedule(b *strings.Builder, env *runEnv) error {
	p, err := newAppendPlan(env)
	if err != nil {
		return err
	}
	for _, q := range p.warm {
		fmt.Fprintf(b, "warm %s\n", q.id())
	}
	fmt.Fprintf(b, "warm %s\n", p.readerHot.id())
	for k := 0; k < 2*p.cycleOps(); k++ {
		t, q := p.op(k)
		fmt.Fprintf(b, "append %d tail %016x %s\n", t, p.tail(k).Fingerprint(), q.id())
	}
	for i := 0; i < 256; i++ {
		fmt.Fprintf(b, "read %s\n", p.reader.take().id())
	}
	return nil
}

// appendStack is the workers with two sessions over them: the writer's
// over the grown tables and the reader's over uscrime.
type appendStack struct {
	workers        *workerSet
	writer, reader *ziggy.Session
	bases          []*frame.Frame // the writer's tables in their initial content
}

func startAppendStack(cfg core.Config, env *runEnv) (*appendStack, error) {
	bases, err := growTables(env.sz)
	if err != nil {
		return nil, err
	}
	ws, err := startWorkers(cfg, env.tr)
	if err != nil {
		return nil, err
	}
	st := &appendStack{workers: ws, bases: bases}
	if st.writer, err = ziggy.New(cfg, ziggy.WithBackends(ws.clients(env.tr)...)); err != nil {
		ws.close()
		return nil, err
	}
	if st.reader, err = ziggy.New(cfg, ziggy.WithBackends(ws.clients(env.tr)...)); err != nil {
		st.writer.Close()
		ws.close()
		return nil, err
	}
	for _, b := range bases {
		if err := st.writer.Register(b); err != nil {
			st.close()
			return nil, err
		}
	}
	if err := st.reader.Register(synth.USCrime(1)); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// warm ships every table and fills the prepared tier of its initial
// content.
func (st *appendStack) warm(p *appendPlan) error {
	for _, q := range p.warm {
		if _, err := st.writer.CharacterizeOpts(q.sql, q.opts()); err != nil {
			return err
		}
	}
	_, err := st.reader.CharacterizeOpts(p.readerHot.sql, p.readerHot.opts())
	return err
}

func (st *appendStack) close() {
	st.writer.Close()
	st.reader.Close()
	st.workers.close()
}

// shipped sums the writer's transport counters.
func (st *appendStack) shipped() (nbytes, chunks int64) {
	for _, sh := range st.writer.ShardStats().Shards {
		nbytes += sh.BytesShipped
		chunks += sh.ChunksShipped
	}
	return nbytes, chunks
}

// opRecord is the writer's last operation on one table since the reset.
type opRecord struct {
	q    query
	norm []byte
}

// runAppend runs the writer and the reader side by side. The writer's
// operations (append, then characterize the grown table) are the measured
// operations; the reader's latency is reported as client.read_p50_ms.
func runAppend(env *runEnv) (*result, error) {
	cfg := core.DefaultConfig()
	p, err := newAppendPlan(env)
	if err != nil {
		return nil, err
	}
	var st *appendStack
	var setups []float64
	for i := 0; i < env.sz.setups; i++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		env.tr.reset()
		start := time.Now()
		if st, err = startAppendStack(cfg, env); err != nil {
			return nil, err
		}
		if err := st.warm(p); err != nil {
			st.close()
			return nil, fmt.Errorf("warming: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()

	res := &result{Metrics: metrics{}, oracle: newOracle(env.sz.check)}
	m := res.Metrics
	m.setQuantile("setup_s", setups, 0.5)
	wrec := &recorder{or: res.oracle, log: env.log}
	rrec := &recorder{or: res.oracle, log: env.log}
	tr := env.tr
	var ids atomic.Uint64
	// traceOp records the client.request span rooting one operation.
	traceOp := func(id uint64, start int64, q query, qr *ziggy.QueryReport) {
		if tr == nil {
			return
		}
		s := span{Name: "client.request", Start: start, End: tr.now(), Req: id}
		if qr != nil {
			s.table = qr.Base.Fingerprint()
			s.key = requestKey(s.table, qr.Mask, q.opts())
		}
		tr.add(s)
	}
	begin := func() (uint64, int64) {
		if tr == nil {
			return 0, 0
		}
		return ids.Add(1), tr.now()
	}

	var from int64
	if tr != nil {
		from = tr.now()
	}
	rssSamples := sampleRSS()
	before, beforeW := readProcessCounters(), st.workers.totals()
	bytes0, chunks0 := st.shipped()
	scans0 := frame.ChunkScans()
	deadline := time.Now().Add(env.measure)
	appended := make([][]int, len(p.bases)) // operations since the reset, per table
	last := make([]*opRecord, len(p.bases))
	var elapsed time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		start := time.Now()
		for k := 0; time.Now().Before(deadline); k++ {
			if k > 0 && k%p.cycleOps() == 0 {
				for t, b := range st.bases {
					if err := st.writer.Register(b); err != nil {
						res.oracle.fail("resetting %s: %v", b.Name(), err)
					}
					appended[t], last[t] = nil, nil
				}
			}
			t, q := p.op(k)
			tail := p.tail(k)
			id, spanStart := begin()
			t0 := time.Now()
			err := st.writer.Append(q.table, tail)
			if tr != nil {
				tr.add(span{Name: "session.append", Start: spanStart, End: tr.now(), Req: id})
			}
			var qr *ziggy.QueryReport
			if err == nil {
				appended[t] = append(appended[t], k)
				qr, err = st.writer.CharacterizeOpts(q.sql, q.opts())
			}
			lat := time.Since(t0)
			traceOp(id, spanStart, q, qr)
			wrec.done(lat, err)
			last[t] = nil
			if err == nil {
				last[t] = &opRecord{q: q, norm: normalizeReport(qr.Report)}
			}
		}
		elapsed = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			q := p.reader.take()
			id, spanStart := begin()
			t0 := time.Now()
			qr, err := st.reader.CharacterizeOpts(q.sql, q.opts())
			lat := time.Since(t0)
			traceOp(id, spanStart, q, qr)
			if err == nil {
				res.oracle.observe(q, normalizeReport(qr.Report))
			}
			rrec.done(lat, err)
		}
	}()
	wg.Wait()
	after, afterW := readProcessCounters(), st.workers.totals()
	scans := frame.ChunkScans() - scans0
	bytes1, chunks1 := st.shipped()
	rss, err := rssSamples.finish()
	if err != nil {
		return nil, err
	}

	ops := len(wrec.lat)
	res.Attempted = wrec.attempted + rrec.attempted
	res.Failed = wrec.failed + rrec.failed
	setLatency(m, wrec.lat, elapsed, rss)
	m.setQuantile("client.read_p50_ms", rrec.lat, 0.5)
	m.setRuntime(before, after, ops+len(rrec.lat))
	m.setCacheMetrics(beforeW, afterW)
	m.set("gen.late_ms", 0, 0)
	m.set("gen.backlog_max", 0, 0)
	m.set("gen.rejected_draws", float64(p.gw.rejected+p.gr.rejected), p.gw.rejected+p.gr.rejected)
	m.set("remote.bytes_per_append", ratio(float64(bytes1-bytes0), float64(ops)), ops)
	m.set("remote.chunks_per_append", ratio(float64(chunks1-chunks0), float64(ops)), ops)
	m.set("frame.chunk_scans_per_append", ratio(float64(scans), float64(ops)), ops)

	// The reader's answers against one in-process engine.
	refCfg := cfg
	refCfg.Shards, refCfg.Parallelism = 1, 1
	ref, err := ziggy.New(refCfg)
	if err != nil {
		return nil, err
	}
	if err := ref.Register(p.crime.frame); err != nil {
		return nil, err
	}
	// Each grown table against the same content loaded whole: equal
	// fingerprints, and equal answers to the last query on it.
	var wholes []*frame.Frame
	var sqls []string
	for t, b := range p.bases {
		var tails []*frame.Frame
		for _, k := range appended[t] {
			tails = append(tails, p.tail(k))
		}
		whole, err := wholeLoad(b.frame, tails)
		if err != nil {
			return nil, err
		}
		wholes = append(wholes, whole)
		if err := ref.Register(whole); err != nil {
			return nil, err
		}
		cur, ok := st.writer.Table(whole.Name())
		if !ok || cur.Fingerprint() != whole.Fingerprint() {
			res.oracle.fail("table %s after %d appends differs from its whole load", whole.Name(), len(tails))
		}
		if last[t] != nil {
			sqls = append(sqls, last[t].q.sql)
			qr, err := ref.CharacterizeOpts(last[t].q.sql, last[t].q.opts())
			switch {
			case err != nil:
				res.oracle.fail("reference for %q: %v", last[t].q.id(), err)
			case !bytes.Equal(normalizeReport(qr.Report), last[t].norm):
				res.oracle.fail("%q on the appended %s differs from its whole load", last[t].q.id(), whole.Name())
			}
		}
	}
	res.oracle.checkReference(func(q query) ([]byte, error) {
		qr, err := ref.CharacterizeOpts(q.sql, q.opts())
		if err != nil {
			return nil, err
		}
		return normalizeReport(qr.Report), nil
	})

	if tr != nil {
		f := tr.fold(from)
		f.layerMetrics(m)
		res.SelfMs, res.ClientMs, res.Linked = f.selfBreakdown(from)
		for _, k := range res.oracle.kept {
			sqls = append(sqls, k.q.sql)
		}
		m.setQuantile("db.query_ms", timeQueries(append(wholes, p.crime.frame), sqls), 0.5)
		m.setQuantile("depend.matrix_ms", growMatrices(cfg, p, appended), 0.5)
	}
	return res, nil
}

// growMatrices times the dependency matrix of every table version the
// writer characterized since the last reset.
func growMatrices(cfg core.Config, p *appendPlan, appended [][]int) []float64 {
	var versions []*frame.Frame
	for t, b := range p.bases {
		v := b.frame
		for _, k := range appended[t] {
			grown, err := v.Append(p.tail(k))
			if err != nil {
				break
			}
			v = grown
			versions = append(versions, v)
		}
	}
	return timeMatrices(cfg, versions)
}

// wholeLoad builds in one pass the table that base grown by tails must
// equal.
func wholeLoad(base *frame.Frame, tails []*frame.Frame) (*frame.Frame, error) {
	b := frame.NewBuilder(base.Name())
	for _, c := range base.Columns() {
		if c.Kind() == frame.Numeric {
			b.AddNumeric(c.Name())
		} else {
			b.AddCategorical(c.Name())
		}
	}
	for _, part := range append([]*frame.Frame{base}, tails...) {
		for ci, c := range part.Columns() {
			for i := 0; i < c.Len(); i++ {
				switch {
				case c.IsNull(i):
					b.AppendNull(ci)
				case c.Kind() == frame.Numeric:
					b.AppendFloat(ci, c.Float(i))
				default:
					b.AppendStr(ci, c.Str(i))
				}
			}
		}
	}
	return b.Build()
}
