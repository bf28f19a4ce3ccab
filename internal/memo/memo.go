// Package memo implements the content-addressed memoization substrate of
// the serving hot path: a generic LRU cache bounded by entry count and
// approximate byte size, with singleflight deduplication so concurrent
// requests for the same key compute the value exactly once, and atomic
// hit/miss/evict/dedup counters that reconcile (hits + misses = requests).
//
// The engine runs two tiers on top of it: the prepared-cache (dependency
// matrix + dendrogram per table fingerprint) and the report-cache (full
// characterization reports per (frame, selection, config, options)
// fingerprint). Keys are value types derived from content fingerprints, so
// reloading an identical table hits the cache where the previous
// pointer-keyed map missed, and dropping the last reference to a table lets
// the LRU age its entries out instead of leaking them.
package memo

import (
	"container/list"
	"encoding/json"
	"errors"
	"sync"
)

// Outcome classifies how a Do call obtained its value.
type Outcome int

const (
	// Miss means this call computed the value (it is the singleflight
	// leader).
	Miss Outcome = iota
	// Hit means the value was already cached.
	Hit
	// Deduped means this call joined a concurrent identical computation and
	// waited for its result instead of computing its own.
	Deduped
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Deduped:
		return "deduped"
	default:
		return "Outcome(?)"
	}
}

// ErrComputePanicked is delivered to deduplicated waiters when the leader's
// compute function panicked; the panic itself propagates on the leader's
// goroutine.
var ErrComputePanicked = errors.New("memo: computation panicked")

// Snapshot is a point-in-time copy of one cache tier's counters and
// occupancy. Hits + Misses equals the number of Do calls; Deduped counts
// the subset of misses that joined an in-flight computation, so
// Misses - Deduped is the number of computations actually executed.
type Snapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Deduped   int64 `json:"deduped"`
	// Inflight is the number of computations executing right now.
	Inflight int64 `json:"inflight"`
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
}

// Requests returns the total number of Do calls the snapshot covers.
func (s Snapshot) Requests() int64 { return s.Hits + s.Misses }

// MarshalJSON encodes the snapshot's counters together with its derived
// Requests count, so every JSON reader sees hits + misses = requests.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type counters Snapshot // without this method
	return json.Marshal(struct {
		counters
		Requests int64 `json:"requests"`
	}{counters(s), s.Requests()})
}

// entry is one cached key/value pair with its charged size.
type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// call is one in-flight computation; waiters block on done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a bounded LRU with singleflight deduplication. The zero value is
// not usable; call New. All methods are safe for concurrent use. Values are
// shared between the cache and every caller, so they must be treated as
// immutable once returned.
type Cache[K comparable, V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[K]*list.Element
	calls      map[K]*call[V]

	hits, misses, evictions, deduped int64
}

// New builds a cache bounded to maxEntries entries and maxBytes approximate
// bytes; a bound ≤ 0 means unbounded on that axis.
func New[K comparable, V any](maxEntries int, maxBytes int64) *Cache[K, V] {
	return &Cache[K, V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[K]*list.Element),
		calls:      make(map[K]*call[V]),
	}
}

// Do returns the cached value for key, computing it with compute on a miss.
// Concurrent Do calls for the same key execute compute exactly once: the
// first caller (the leader) computes while the rest block and share its
// result. size reports the bytes to charge a freshly computed value
// against the cache's byte bound. Errors are returned to the leader and all
// waiters but never cached.
func (c *Cache[K, V]) Do(key K, size func(V) int64, compute func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry[K, V]).val
		c.mu.Unlock()
		return v, Hit, nil
	}
	c.misses++
	if cl, ok := c.calls[key]; ok {
		c.deduped++
		c.mu.Unlock()
		<-cl.done
		return cl.val, Deduped, cl.err
	}
	cl := &call[V]{done: make(chan struct{})}
	c.calls[key] = cl
	c.mu.Unlock()

	completed := false
	defer func() {
		if completed {
			return
		}
		// compute panicked. Unblock waiters with an error and let the panic
		// continue up the leader's stack.
		c.mu.Lock()
		delete(c.calls, key)
		c.mu.Unlock()
		cl.err = ErrComputePanicked
		close(cl.done)
	}()
	v, err := compute()
	completed = true

	c.mu.Lock()
	delete(c.calls, key)
	if err == nil {
		c.insertLocked(key, v, size(v))
	}
	c.mu.Unlock()

	cl.val, cl.err = v, err
	close(cl.done)
	return v, Miss, err
}

// Lookup returns the cached value without computing. A hit touches LRU
// recency and counts toward the hit counter — it serves a request — but a
// miss counts nothing: the caller is expected to follow up with Do, which
// accounts the full request, so hits + misses = requests stays true.
func (c *Cache[K, V]) Lookup(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Get returns the cached value without computing, touching LRU recency but
// not the hit/miss counters (it is a peek, not a request).
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores v under key, charged size bytes, without counting a hit or a
// miss: it serves no request. A front tier that fills itself from another
// tier's hits uses it, so hits + misses summed over both tiers still equals
// requests. An existing entry is refreshed; evictions count as usual.
func (c *Cache[K, V]) Put(key K, v V, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, v, size)
}

// insertLocked stores a new entry and evicts from the cold end while either
// bound is exceeded. The newest entry survives even if it alone exceeds
// maxBytes — caching an oversized value beats recomputing it every time —
// but it becomes the first candidate once something newer arrives.
func (c *Cache[K, V]) insertLocked(key K, v V, size int64) {
	if el, ok := c.items[key]; ok {
		// A concurrent leader for the same key already stored a value (only
		// possible around Purge churn); refresh it.
		old := el.Value.(*entry[K, V])
		c.bytes += size - old.size
		old.val, old.size = v, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: v, size: size})
		c.bytes += size
	}
	c.evictLocked()
}

// Recharge adds delta to the bytes charged for key's entry when it is
// resident and same accepts its value, then evicts from the cold end while
// either bound is exceeded. A value that grows after it was cached charges
// its growth this way, so evicting it frees the growth too. It counts no
// request and leaves recency untouched; a missing or replaced entry is left
// alone.
func (c *Cache[K, V]) Recharge(key K, delta int64, same func(V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	e := el.Value.(*entry[K, V])
	if !same(e.val) {
		return
	}
	e.size += delta
	c.bytes += delta
	c.evictLocked()
}

// evictLocked drops entries from the cold end while either bound is
// exceeded, always keeping the most recent one.
func (c *Cache[K, V]) evictLocked() {
	for c.ll.Len() > 1 &&
		((c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		back := c.ll.Back()
		e := back.Value.(*entry[K, V])
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// Each calls fn for every resident entry in recency order (most recent
// first) until fn returns false, without touching recency or the counters.
// fn runs under the cache lock: it must be cheap and must not call back
// into the cache — collect what you need and return. The remote worker uses
// this to scan its table store for delta-ship prefix candidates.
func (c *Cache[K, V]) Each(fn func(K, V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		if !fn(e.key, e.val) {
			return
		}
	}
}

// Purge drops every cached entry. In-flight computations are unaffected and
// insert their results when they finish. Purged entries do not count as
// evictions.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[K]*list.Element)
	c.bytes = 0
}

// Snapshot returns a consistent copy of the counters and occupancy.
func (c *Cache[K, V]) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Deduped:   c.deduped,
		Inflight:  int64(len(c.calls)),
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
