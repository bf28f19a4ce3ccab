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
// back to the correlation ratio η (numeric vs categorical) or Cramér's V
// (categorical vs categorical) under every measure.
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
// to a cold build. RowsFolded meters that work. Pairs with a categorical
// column do not fold; they are Pairwise's scan on every build. Pairwise
// remains the two-pass reference the tests hold the fold against.
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
