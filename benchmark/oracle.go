package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/core"
)

// oracle checks answers as they arrive and after the measured phase:
// every repeat of a request must answer the same normalized bytes as its
// first serving, and a sample of first servings must equal what a
// reference in-process engine answers.
type oracle struct {
	max int

	mu       sync.Mutex
	digests  map[string]uint64 // request identity → digest of its first answer
	kept     []kept            // first answers kept for the reference check
	problems []string
	failures int
}

// kept is one request with its normalized first answer.
type kept struct {
	q    query
	norm []byte
}

func newOracle(max int) *oracle {
	return &oracle{max: max, digests: map[string]uint64{}}
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// observe checks one normalized answer against the earlier answers to the
// same request, and keeps it for the reference check while fewer than max
// are kept.
func (o *oracle) observe(q query, norm []byte) {
	d := digest(norm)
	o.mu.Lock()
	defer o.mu.Unlock()
	id := q.id()
	if prev, ok := o.digests[id]; ok {
		if prev != d {
			o.failLocked("repeat of %q answered different bytes", id)
		}
		return
	}
	o.digests[id] = d
	if len(o.kept) < o.max {
		o.kept = append(o.kept, kept{q: q, norm: norm})
	}
}

func (o *oracle) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failLocked(format, args...)
}

// failLocked records a problem; only the first few are kept verbatim.
func (o *oracle) failLocked(format string, args ...any) {
	o.failures++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// checkReference replays every kept request through ref, which returns the
// reference's normalized answer, and requires equal bytes.
func (o *oracle) checkReference(ref func(q query) ([]byte, error)) {
	for _, k := range o.kept {
		want, err := ref(k.q)
		if err != nil {
			o.fail("reference for %q: %v", k.q.id(), err)
			continue
		}
		if !bytes.Equal(k.norm, want) {
			o.fail("%q differs from the in-process reference", k.q.id())
		}
	}
}

// verdict reports whether every check passed, and the recorded problems.
func (o *oracle) verdict() (bool, []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	problems := append([]string(nil), o.problems...)
	if o.failures > len(o.problems) {
		problems = append(problems, fmt.Sprintf("... %d problems in all", o.failures))
	}
	return o.failures == 0, problems
}

var (
	volatileStart = []byte(`"prepMillis":`)
	volatileLast  = []byte(`"reportCacheHit":`)
)

// normalizeJSON removes from a characterize response the fields that
// legitimately differ between servings of one request: the stage timings
// and the two cache flags, which the server writes as one contiguous run of
// fields. What remains must be identical for every serving. ok is false
// when the body does not have that shape.
func normalizeJSON(body []byte) (norm []byte, ok bool) {
	i := bytes.Index(body, volatileStart)
	j := bytes.Index(body, volatileLast)
	if i < 0 || j < i {
		return nil, false
	}
	k := bytes.IndexByte(body[j:], ',')
	if k < 0 {
		return nil, false
	}
	k += j + 1
	norm = make([]byte, 0, len(body)-(k-i))
	norm = append(norm, body[:i]...)
	return append(norm, body[k:]...), true
}

// normalizeReport encodes a report without its timings and cache flags, the
// session-level counterpart of normalizeJSON.
func normalizeReport(rep *core.Report) []byte {
	norm := *rep
	norm.Timings = core.Timings{}
	norm.CacheHit = false
	norm.ReportCacheHit = false
	return core.EncodeReport(&norm)
}
