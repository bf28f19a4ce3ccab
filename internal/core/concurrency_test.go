package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/frame"
	"repro/internal/par"
	"repro/internal/synth"
)

// TestConcurrentCharacterize exercises the engine from many goroutines
// sharing one cache: results must be deterministic and the cache must not
// corrupt under the race detector.
func TestConcurrentCharacterize(t *testing.T) {
	pd := plantedFixture(t, 50)
	e := defaultEngine(t)

	// Reference run.
	want, err := e.Characterize(pd.Frame, pd.Selection)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Alternate between the original selection and its complement
			// so both cache paths are hit concurrently.
			sel := pd.Selection
			if worker%2 == 1 {
				sel = pd.Selection.Clone().Not()
			}
			for i := 0; i < 5; i++ {
				rep, err := e.Characterize(pd.Frame, sel)
				if err != nil {
					errs <- err
					return
				}
				if worker%2 == 0 {
					if len(rep.Views) != len(want.Views) {
						errs <- fmt.Errorf("worker %d: %d views, want %d", worker, len(rep.Views), len(want.Views))
						return
					}
					for vi := range rep.Views {
						if rep.Views[vi].Score != want.Views[vi].Score {
							errs <- fmt.Errorf("worker %d: score drift on view %d", worker, vi)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentDistinctFrames runs characterizations of different tables
// through one engine concurrently; cache keys must not collide.
func TestConcurrentDistinctFrames(t *testing.T) {
	e := defaultEngine(t)
	frames := make([]*frame.Frame, 4)
	sels := make([]*frame.Bitmap, 4)
	for i := range frames {
		pd, err := synth.Planted(synth.PlantedConfig{
			Seed: uint64(60 + i), Rows: 800, SelectionFraction: 0.3,
			Views:     []synth.PlantedView{{Cols: 2, WithinCorr: 0.7, MeanShift: 1.5}},
			NoiseCols: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = pd.Frame
		sels[i] = pd.Selection
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(frames)*3)
	for round := 0; round < 3; round++ {
		for i := range frames {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rep, err := e.Characterize(frames[i], sels[i])
				if err != nil {
					errs <- err
					return
				}
				if len(rep.Views) == 0 {
					errs <- fmt.Errorf("frame %d: no views", i)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentCharacterizeParallelEngine layers the two levels of
// concurrency: many goroutines calling Characterize on ONE engine whose
// internal stages themselves fan out across workers. Run under -race, this
// is the main guard for the worker pool's shared-state discipline. The
// robust engine's runs skip the report cache, so every run walks the
// columns on split scratch that concurrent runs take from and return to
// the engine's pool.
func TestConcurrentCharacterizeParallelEngine(t *testing.T) {
	pd := plantedFixture(t, 55)
	for _, robust := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Parallelism = 4
		cfg.Robust = robust
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{SkipReportCache: robust}
		ref, err := e.CharacterizeOpts(pd.Frame, pd.Selection, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := fingerprint(ref)

		const workers = 6
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					rep, err := e.CharacterizeOpts(pd.Frame, pd.Selection, opts)
					if err != nil {
						errs <- err
						return
					}
					if got := fingerprint(rep); got != want {
						errs <- fmt.Errorf("robust=%v worker %d run %d: output drifted from reference", robust, worker, i)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestInvalidateCacheDuringRuns hammers InvalidateCache while parallel
// characterizations are in flight: every run must still succeed and produce
// the reference output, whichever side of an invalidation it lands on.
func TestInvalidateCacheDuringRuns(t *testing.T) {
	pd := plantedFixture(t, 56)
	cfg := DefaultConfig()
	cfg.Parallelism = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.Characterize(pd.Frame, pd.Selection)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(ref)

	stop := make(chan struct{})
	var invalidatorWG sync.WaitGroup
	invalidatorWG.Add(1)
	go func() {
		defer invalidatorWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.InvalidateCache()
			}
		}
	}()

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				rep, err := e.Characterize(pd.Frame, pd.Selection)
				if err != nil {
					errs <- err
					return
				}
				if got := fingerprint(rep); got != want {
					errs <- fmt.Errorf("worker %d run %d: output drifted during cache churn", worker, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	invalidatorWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolCoversAllTasks verifies the pool's core contract: every task in
// [0, n) runs exactly once, for worker counts below, at, and above n.
func TestPoolCoversAllTasks(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 16} {
		for _, n := range []int{0, 1, 7, 1000} {
			hits := make([]int32, n)
			par.For(workers, n, func(worker, task int) {
				if worker < 0 || worker >= workers {
					t.Errorf("workers=%d n=%d: worker index %d out of range", workers, n, worker)
				}
				atomic.AddInt32(&hits[task], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestPoolPanicPropagation asserts a task panic resurfaces on the calling
// goroutine wrapped in *par.Panic — identically for the inline sequential
// path and the goroutine fan-out — with the original value and the worker
// stack preserved, and error panic values reachable through errors.As.
func TestPoolPanicPropagation(t *testing.T) {
	sentinel := errors.New("task exploded")
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				p, ok := r.(*par.Panic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *par.Panic", workers, r)
				}
				if p.Value != sentinel {
					t.Errorf("workers=%d: panic value %v, want sentinel", workers, p.Value)
				}
				if len(p.Stack) == 0 {
					t.Errorf("workers=%d: worker stack not captured", workers)
				}
				if !errors.Is(p, sentinel) {
					t.Errorf("workers=%d: errors.Is cannot reach the wrapped error", workers)
				}
			}()
			par.For(workers, 8, func(_, task int) {
				if task == 3 {
					panic(sentinel)
				}
			})
		}()
	}
}

// TestPoolCancellationAfterPanic asserts a panic cancels the pending task
// backlog: after one task dies, workers stop draining the queue instead of
// running all remaining tasks.
func TestPoolCancellationAfterPanic(t *testing.T) {
	const n = 1 << 20
	var executed atomic.Int64
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		par.For(4, n, func(_, task int) {
			executed.Add(1)
			if task == 0 {
				panic("early death")
			}
		})
	}()
	if got := executed.Load(); got >= n {
		t.Fatalf("all %d tasks ran despite the panic; cancellation is broken", n)
	}
}

// TestPoolPanicInEngineSurfaces sanity-checks that a panic inside a
// parallel engine stage crosses Characterize's goroutines rather than
// hanging or vanishing (nil frame columns are impossible through the public
// API, so this drives the pool directly with engine-sized inputs).
func TestPoolPanicInEngineSurfaces(t *testing.T) {
	if runtime.NumCPU() < 1 {
		t.Skip("no CPUs?")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected propagated panic")
		}
	}()
	par.For(par.Workers(0), 128, func(_, task int) {
		if task == 64 {
			var c *frame.Column
			_ = c.Len() // nil-pointer panic from a realistic callee
		}
	})
}

// TestRepeatedRunsAreDeterministic guards against map-iteration order or
// other nondeterminism leaking into the ranking.
func TestRepeatedRunsAreDeterministic(t *testing.T) {
	pd := plantedFixture(t, 70)
	e := defaultEngine(t)
	var first *Report
	for run := 0; run < 5; run++ {
		rep, err := e.Characterize(pd.Frame, pd.Selection)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep
			continue
		}
		if len(rep.Views) != len(first.Views) {
			t.Fatalf("run %d: view count drift", run)
		}
		for i := range rep.Views {
			if rep.Views[i].Score != first.Views[i].Score ||
				fmt.Sprint(rep.Views[i].Columns) != fmt.Sprint(first.Views[i].Columns) ||
				rep.Views[i].Explanation != first.Views[i].Explanation {
				t.Fatalf("run %d: view %d drifted", run, i)
			}
		}
	}
}
