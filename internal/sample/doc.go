// Package sample provides row-sampling primitives for approximate
// characterization. The paper's introduction names BlinkDB — exploration
// through sampling — as one of the systems Ziggy complements; this package
// lets the engine cap the rows its per-query statistics consume
// (Options.ApproxRows, flagged on the result as Report.Approximate),
// trading a bounded accuracy loss for latency. Experiment X7 quantifies
// that trade-off.
//
// Two primitives are exposed:
//
//   - Reservoir: k distinct indices drawn uniformly from [0, n) in
//     ascending order (algorithm R), the building block.
//   - Stratified: a proportional two-strata sample over a selection
//     bitmap, preserving the inside/outside ratio so effect sizes stay
//     unbiased, with a per-stratum floor (the engine passes MinRows) so
//     neither side collapses below testability.
//
// Both are driven by an explicit randx.Source seeded by the caller; the
// engine derives the seed from the table and selection fingerprints plus
// the request's cap and seed, so sampled runs are exactly repeatable and
// remain bit-for-bit identical across worker counts and topologies.
package sample
