// Package depend implements the statistical dependency measure S of the
// paper (Equation 2): a symmetric score in [0, 1] quantifying how
// interdependent two columns are. The tightness of a candidate view is the
// minimum pairwise dependency of its columns, and Ziggy only reports views
// whose tightness clears the user threshold MIN_tight.
//
// Three measures are provided, selectable per engine configuration:
// absolute Pearson correlation (the default, matching the paper's
// implementation), absolute Spearman rank correlation (robust to monotone
// non-linearity), and normalized binned mutual information (captures
// arbitrary dependencies at higher cost). Heterogeneous column pairs fall
// back to the correlation ratio η (numeric vs categorical, through the
// stats.CorrelationRatio accumulator the extended separation component
// also uses) or Cramér's V (categorical vs categorical) under every
// measure.
//
// Every cell maps its raw statistic to S through one rule: the absolute
// value, NaN → 0 and anything above 1 → 1. A constant column, fewer than
// three complete cases, or an infinite cell (which turns a correlation or η
// NaN) thus gives 0, and the matrix never holds a value the clustering
// stage rejects.
//
// Matrix is the preparation-stage product: the full pairwise dependency
// matrix over a frame's columns, cached per table by the engine and shared
// across queries (the paper's computation-sharing strategy). Its
// construction is the dominant O(cols²) preparation cost, so
// NewMatrixParallel shards the upper triangle across the par worker pool —
// one unordered pair per task, each writing only its two mirror cells, so
// the matrix is bit-for-bit identical for every worker count.
//
// Under the Pearson measure the matrix is a left fold over fixed 64-row
// blocks (FoldMatrix): each numeric column keeps a running (n, mean, M2)
// and each numeric pair a running co-moment, merged block by block with
// Chan et al.'s update. The block size does not depend on the frame's
// chunk capacity, so the fold's state at any chunk boundary (FoldState) is
// a pure function of the rows before it: a table grown by an append
// resumes from its base's state and folds only the new rows, bit-identical
// to a cold build. RowsFolded meters that work. A categorical × numeric
// pair resumes as well: the state keeps its stats.CorrelationRatio, which
// is fed row by row in ascending order, so feeding a copy only the new
// rows gives a cold scan's bits with no merge; EtaRowsFed meters it. A
// categorical × categorical pair is Cramér's V over every row on every
// build. Pairwise remains the two-pass reference the tests hold the fold
// against, and its η is the fold's own scan.
//
// Under the Spearman measure the matrix additionally runs a rank-once
// phase: ranking is sharded per column (each NULL-free numeric column is
// ranked exactly once via stats.Ranks) and the pair loop correlates the
// precomputed rank vectors with stats.SpearmanRanked, collapsing
// 2·cols·(cols−1) ranking sorts into cols. Columns with NULLs keep the
// per-pair fallback, because their pairwise complete-case sets — and hence
// their ranks — differ per partner column. Ranks are global, so Spearman
// (like normalized MI) rebuilds in full after an append.
package depend
