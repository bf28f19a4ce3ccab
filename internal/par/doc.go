// Package par provides the deterministic fan-out primitive behind the
// engine's parallel stages. The contract that keeps parallel runs
// bit-for-bit identical to sequential ones is simple: For hands every task
// index in [0, n) to exactly one worker, and the task function writes only
// to task-indexed locations (no appends, no shared accumulators). Under
// that contract the task schedule cannot influence the output, so any
// worker count — including 1, which runs inline without goroutines —
// produces the same bytes.
//
// The second half of the contract is the worker index: fn receives a
// stable worker id below min(workers, n) that it may use to address
// per-worker scratch state without locking. The stats.RankScratch slice of
// core.Engine.columnOrders (radix-sort buffers while a table's column
// orders are built) is built on this guarantee; scratch-backed
// computations return exactly the same bytes as allocation-backed ones
// because the buffers only ever carry values written by the current task.
//
// Error handling mirrors the sequential world: if any task panics, the
// pool stops handing out work, in-flight tasks drain, and the first panic
// re-raises on the calling goroutine wrapped in *Panic (original value
// plus the worker goroutine's stack). The sequential path wraps panics the
// same way, so callers observe one contract regardless of worker count.
package par
