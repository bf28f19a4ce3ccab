package shard

import (
	"testing"
	"time"
)

// occupy pushes k admission tokens straight into the backend's queue,
// simulating k admitted-and-stuck requests; the returned release drains
// them again.
func occupy(b *EngineBackend, k int) (release func()) {
	for i := 0; i < k; i++ {
		b.admit <- struct{}{}
	}
	return func() {
		for i := 0; i < k; i++ {
			<-b.admit
		}
	}
}

// TestRetryAfterClamped pins the backoff-hint hardening: an idle backend
// still hints zero, a degenerate observed service rate (cumulative service
// time decayed to zero) falls back to the seed estimate instead of telling
// clients to retry immediately, and the hint never leaves
// [retryAfterMin, retryAfterMax] no matter how fast or slow the observed
// rate is.
func TestRetryAfterClamped(t *testing.T) {
	b, err := NewEngineBackend(testConfig(), nil, Params{Concurrency: 2, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.retryAfter(); got != 0 {
		t.Fatalf("idle backend retryAfter = %v, want 0", got)
	}

	release := occupy(b, 1)

	// No completions yet: the seed estimate applies (500ms / 2 slots).
	seeded := b.retryAfter()
	if want := defaultServiceEstimate / 2; seeded != want {
		t.Errorf("seeded retryAfter = %v, want %v", seeded, want)
	}

	// Completions with zero cumulative service time — the degenerate state
	// after a long stretch of timer-resolution-fast runs — must fall back
	// to the seed, not hint an instant retry.
	b.completed.Store(8)
	b.serviceNanos.Store(0)
	if got := b.retryAfter(); got != seeded {
		t.Errorf("zero-rate retryAfter = %v, want seed-backed %v", got, seeded)
	}

	// An extremely fast observed rate clamps up to the floor.
	b.completed.Store(1 << 20)
	b.serviceNanos.Store(1)
	if got := b.retryAfter(); got != retryAfterMin {
		t.Errorf("fast-rate retryAfter = %v, want floor %v", got, retryAfterMin)
	}

	// An extremely slow observed rate clamps down to the ceiling.
	b.completed.Store(1)
	b.serviceNanos.Store(int64(time.Hour))
	if got := b.retryAfter(); got != retryAfterMax {
		t.Errorf("slow-rate retryAfter = %v, want ceiling %v", got, retryAfterMax)
	}

	// A sane observed rate passes through unclamped: 100ms mean service
	// over 2 slots at occupancy 1 is 50ms.
	b.completed.Store(10)
	b.serviceNanos.Store(int64(time.Second))
	if got, want := b.retryAfter(), 50*time.Millisecond; got != want {
		t.Errorf("observed-rate retryAfter = %v, want %v", got, want)
	}

	release()
	if got := b.retryAfter(); got != 0 {
		t.Errorf("drained backend retryAfter = %v, want 0", got)
	}
}
