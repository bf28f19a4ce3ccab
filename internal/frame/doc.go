// Package frame implements the in-memory columnar data representation that
// every other layer of the system builds on.
//
// A Frame is an ordered collection of named, equally-long columns. Two
// column kinds exist: numeric columns store float64 values (with NaN
// representing NULL, matching how the paper's MonetDB/R stack surfaces
// missing doubles) and categorical columns store dictionary-encoded strings
// (code -1 representing NULL). A categorical column is its codes and its
// dictionary; the string-to-code index exists only while a column is
// encoded. Frames are immutable once built. Every table version that copies
// cells comes from one Splice of a base's first k rows and tail cells:
// Builder.Build (the append-only construction path of the CSV loader and
// the synthetic-data generators, a splice onto no base), Frame.Append, and
// the remote worker's reassembly of a shipped table.
//
// Frames are the unit of exchange between the SQL layer (package db), the
// statistics layers, and the Ziggy engine (package core). Selection results
// are not materialized as new frames; instead they are represented by a
// Bitmap over row indices, which is how the paper splits every column C
// into an inside part Cᴵ and an outside part Cᴼ (paper Figure 2). Bitmap
// is a packed word-level bitset, so splitting stays cheap even on the
// paper's widest tables.
//
// Contracts the statistics layers rely on:
//
//   - Column accessors (Float, Code, Str) never copy; Floats and Codes
//     expose the backing slices read-only. The engine reads cells in place
//     under a row mask ∧ Frame.ColumnValidWords, so NULLs never reach its
//     statistics (stats.Order skips NULL rows the same way), and packages
//     stats, effect and hypo can assume NaN-free input on their hot paths —
//     with the robust entry points additionally hardened to report
//     NaN-bearing input as untestable rather than panicking.
//   - NullCount is O(1) once the column is sealed — its chunk seal records
//     the count — and one scan before that. Any Fingerprint call seals
//     every column, so by the time the engine prepares a table the count
//     is free; rank-once optimizations (the Spearman dependency matrix) use
//     it to find the NULL-free columns whose per-column ranks are reusable
//     across pairs.
package frame
