package memo

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func sizeOf(n int64) func(int) int64 { return func(int) int64 { return n } }

// TestHitMissAndLRUOrder pins the basic contract: first request computes,
// repeats hit, and the entry bound evicts in least-recently-used order.
func TestHitMissAndLRUOrder(t *testing.T) {
	c := New[string, int](2, 0)
	computes := 0
	get := func(k string) int {
		v, _, err := c.Do(k, sizeOf(1), func() (int, error) {
			computes++
			return len(k), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if get("a") != 1 || get("a") != 1 {
		t.Fatal("wrong value for a")
	}
	if computes != 1 {
		t.Fatalf("computes = %d after repeated gets, want 1", computes)
	}
	get("bb")  // cache: [bb a]
	get("a")   // touch a: [a bb]
	get("ccc") // evicts bb: [ccc a]
	if computes != 3 {
		t.Fatalf("computes = %d, want 3", computes)
	}
	get("a") // still cached
	if computes != 3 {
		t.Fatal("touched entry was evicted; LRU order broken")
	}
	get("bb") // recompute
	if computes != 4 {
		t.Fatal("evicted entry served without recompute")
	}
	s := c.Snapshot()
	if s.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (bb then ccc or a)", s.Evictions)
	}
	if s.Requests() != s.Hits+s.Misses {
		t.Fatal("Requests helper inconsistent")
	}
	if got := s.Misses - s.Deduped; got != int64(computes) {
		t.Fatalf("misses-deduped = %d, want computes = %d", got, computes)
	}
}

// TestByteBound asserts the byte bound evicts cold entries and a single
// oversized entry still caches.
func TestByteBound(t *testing.T) {
	c := New[int, int](0, 100)
	for k := 0; k < 5; k++ {
		c.Do(k, sizeOf(40), func() (int, error) { return k, nil })
	}
	s := c.Snapshot()
	if s.Entries != 2 || s.Bytes != 80 {
		t.Fatalf("entries=%d bytes=%d, want 2 entries / 80 bytes", s.Entries, s.Bytes)
	}
	// An oversized value evicts everything else but is itself kept.
	c.Do(99, sizeOf(500), func() (int, error) { return 99, nil })
	s = c.Snapshot()
	if s.Entries != 1 || s.Bytes != 500 {
		t.Fatalf("after oversized insert: entries=%d bytes=%d, want 1/500", s.Entries, s.Bytes)
	}
	if _, ok := c.Get(99); !ok {
		t.Fatal("oversized entry not cached")
	}
}

// TestErrorsAreNotCached asserts failed computations stay uncached and the
// error reaches the caller.
func TestErrorsAreNotCached(t *testing.T) {
	c := New[string, int](8, 0)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.Do("k", sizeOf(1), func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 2 {
		t.Fatalf("calls = %d; error result was cached", calls)
	}
	if c.Len() != 0 {
		t.Fatal("error value entered the cache")
	}
}

// TestSingleflightDedup asserts N concurrent requests for one key execute
// the computation once: misses - deduped == 1 and every caller observes the
// same value.
func TestSingleflightDedup(t *testing.T) {
	c := New[string, int](8, 0)
	var computes atomic.Int64
	enter := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", sizeOf(1), func() (int, error) {
				computes.Add(1)
				<-enter // hold the computation open so others pile up
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let goroutines reach Do, then release the leader.
	for c.Snapshot().Inflight == 0 {
		runtime.Gosched()
	}
	close(enter)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times for %d concurrent requests, want 1", got, n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
	s := c.Snapshot()
	if s.Misses-s.Deduped != 1 {
		t.Fatalf("misses=%d deduped=%d: singleflight accounting broken", s.Misses, s.Deduped)
	}
	if s.Hits+s.Misses != n {
		t.Fatalf("hits+misses = %d, want %d requests", s.Hits+s.Misses, n)
	}
	if s.Inflight != 0 {
		t.Fatalf("inflight = %d after completion", s.Inflight)
	}
}

// TestPanicUnblocksWaiters asserts a panicking leader releases waiters with
// ErrComputePanicked instead of deadlocking them, while the panic still
// propagates on the leader.
func TestPanicUnblocksWaiters(t *testing.T) {
	c := New[string, int](8, 0)
	entered := make(chan struct{})
	release := make(chan struct{})
	waiterErr := make(chan error, 1)

	go func() { // leader
		defer func() { recover() }()
		c.Do("k", sizeOf(1), func() (int, error) {
			close(entered)
			<-release
			panic("dead compute")
		})
	}()
	<-entered
	go func() { // waiter joins the in-flight call
		_, _, err := c.Do("k", sizeOf(1), func() (int, error) { return 0, nil })
		waiterErr <- err
	}()
	for c.Snapshot().Deduped == 0 {
		runtime.Gosched()
	}
	close(release)
	if err := <-waiterErr; !errors.Is(err, ErrComputePanicked) {
		t.Fatalf("waiter err = %v, want ErrComputePanicked", err)
	}
	// The key is usable again after the panic.
	v, _, err := c.Do("k", sizeOf(1), func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("recompute after panic: v=%d err=%v", v, err)
	}
}

// TestPurge asserts Purge empties the cache without disturbing counters'
// reconciliation.
func TestPurge(t *testing.T) {
	c := New[int, int](0, 0)
	for k := 0; k < 4; k++ {
		c.Do(k, sizeOf(10), func() (int, error) { return k, nil })
	}
	c.Purge()
	s := c.Snapshot()
	if s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("after purge: entries=%d bytes=%d", s.Entries, s.Bytes)
	}
	if s.Evictions != 0 {
		t.Fatal("purge counted as eviction")
	}
	// Everything recomputes.
	_, outcome, _ := c.Do(0, sizeOf(10), func() (int, error) { return 0, nil })
	if outcome != Miss {
		t.Fatalf("outcome after purge = %v, want miss", outcome)
	}
}

// TestConcurrentMixedKeys hammers the cache from many goroutines over a
// keyspace larger than the bound; run under -race this guards the locking
// discipline, and the counters must reconcile exactly.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New[int, string](4, 0)
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := (g + i) % 11
				v, _, err := c.Do(k, func(string) int64 { return 8 }, func() (string, error) {
					return fmt.Sprintf("v%d", k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if want := fmt.Sprintf("v%d", k); v != want {
					t.Errorf("key %d: got %q, want %q", k, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Snapshot()
	if got := s.Hits + s.Misses; got != goroutines*perG {
		t.Fatalf("hits+misses = %d, want %d", got, goroutines*perG)
	}
	if s.Entries > 4 {
		t.Fatalf("entries = %d exceeds bound", s.Entries)
	}
	if s.Inflight != 0 {
		t.Fatalf("inflight = %d after quiescence", s.Inflight)
	}
}

// TestOutcomeString covers the diagnostic names.
func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Miss: "miss", Hit: "hit", Deduped: "deduped", Outcome(9): "Outcome(?)"} {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), o.String(), want)
		}
	}
}

// TestEach covers the locked iteration: recency order (most recent first),
// early stop, and visibility of every resident entry.
func TestEach(t *testing.T) {
	c := New[int, string](8, 0)
	for i := 1; i <= 3; i++ {
		c.Do(i, func(string) int64 { return 1 }, func() (string, error) {
			return fmt.Sprintf("v%d", i), nil
		})
	}
	c.Get(1) // bump 1 to most recent

	var keys []int
	c.Each(func(k int, v string) bool {
		if want := fmt.Sprintf("v%d", k); v != want {
			t.Errorf("key %d carries %q, want %q", k, v, want)
		}
		keys = append(keys, k)
		return true
	})
	if len(keys) != 3 || keys[0] != 1 {
		t.Errorf("iteration order %v, want most-recent (1) first and all 3 entries", keys)
	}

	var visited int
	c.Each(func(int, string) bool {
		visited++
		return false
	})
	if visited != 1 {
		t.Errorf("early stop visited %d entries, want 1", visited)
	}

	// Iterating must not perturb recency: 1 is still the freshest, so
	// inserting past the bound evicts the oldest (2), not it.
	small := New[int, string](2, 0)
	small.Do(1, func(string) int64 { return 1 }, func() (string, error) { return "a", nil })
	small.Do(2, func(string) int64 { return 1 }, func() (string, error) { return "b", nil })
	small.Get(1)
	small.Each(func(int, string) bool { return true })
	small.Do(3, func(string) int64 { return 1 }, func() (string, error) { return "c", nil })
	if _, ok := small.Get(1); !ok {
		t.Error("iteration perturbed recency: 1 was evicted")
	}
	if _, ok := small.Get(2); ok {
		t.Error("LRU victim 2 survived")
	}
}

// TestSnapshotJSONCarriesRequests pins the snapshot's wire form: every
// counter plus the derived requests, and a round trip that keeps the
// counters.
func TestSnapshotJSONCarriesRequests(t *testing.T) {
	s := Snapshot{Hits: 3, Misses: 2, Evictions: 1, Deduped: 1, Inflight: 1, Entries: 4, Bytes: 64}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"hits":3,"misses":2,"evictions":1,"deduped":1,"inflight":1,"entries":4,"bytes":64,"requests":5}`
	if string(data) != want {
		t.Errorf("JSON = %s, want %s", data, want)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip = %+v, want %+v", back, s)
	}
}

// TestPutCountsNothing pins the front-tier insert: Put stores and refreshes
// an entry without touching hits or misses, a later Lookup of it counts one
// hit, and Put still evicts past the bounds.
func TestPutCountsNothing(t *testing.T) {
	c := New[int, int](2, 0)
	c.Put(1, 10, 1)
	c.Put(1, 11, 1) // refresh, not a second entry
	if s := c.Snapshot(); s.Hits != 0 || s.Misses != 0 || s.Entries != 1 || s.Bytes != 1 {
		t.Fatalf("after Put: %+v, want one entry and no counted request", s)
	}
	if v, ok := c.Lookup(1); !ok || v != 11 {
		t.Fatalf("Lookup after Put = %d, %v; want the refreshed 11", v, ok)
	}
	c.Put(2, 20, 1)
	c.Put(3, 30, 1) // evicts 1, the least recently used
	s := c.Snapshot()
	if s.Hits != 1 || s.Misses != 0 || s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("after overflowing Puts: %+v, want 1 hit, 2 entries, 1 eviction", s)
	}
	if _, ok := c.Get(1); ok {
		t.Error("Put did not evict the coldest entry")
	}
}

// TestRecharge pins the charge of a value that grows after it was cached:
// the entry's bytes rise, a bound it now exceeds evicts from the cold end,
// and a missing or replaced entry is left alone.
func TestRecharge(t *testing.T) {
	c := New[int, string](0, 100)
	same := func(want string) func(string) bool { return func(v string) bool { return v == want } }
	c.Put(1, "a", 40)
	c.Put(2, "b", 40)
	c.Recharge(2, 10, same("b"))
	if s := c.Snapshot(); s.Bytes != 90 || s.Entries != 2 || s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("after recharge: %+v, want 90 bytes over 2 entries and no counted request", s)
	}
	c.Recharge(2, 10, same("other"))
	c.Recharge(3, 10, same("b"))
	if s := c.Snapshot(); s.Bytes != 90 {
		t.Fatalf("a replaced or missing entry was charged: %+v", s)
	}
	c.Recharge(2, 20, same("b"))
	if _, ok := c.Get(1); ok {
		t.Fatal("recharging past the byte bound kept the cold entry")
	}
	if s := c.Snapshot(); s.Bytes != 70 || s.Entries != 1 || s.Evictions != 1 {
		t.Fatalf("after evicting recharge: %+v, want 70 bytes, 1 entry, 1 eviction", s)
	}
}
