// Package frame implements the in-memory columnar data representation that
// every other layer of the system builds on.
//
// A Frame is an ordered collection of named, equally-long columns. Two
// column kinds exist: numeric columns store float64 values (with NaN
// representing NULL, matching how the paper's MonetDB/R stack surfaces
// missing doubles) and categorical columns store dictionary-encoded strings
// (code -1 representing NULL). Frames are immutable once built; Builder is
// the append-only construction path used by the CSV loader and the
// synthetic-data generators.
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
//     expose the backing slices read-only. Callers that need NULL-free
//     views strip NULLs while splitting (see core.scoreScratch.numericSplit;
//     stats.Order skips NULL rows the same way), so
//     packages stats, effect and hypo can assume NaN-free input on their
//     hot paths — with the robust entry points additionally hardened to
//     report NaN-bearing input as untestable rather than panicking.
//   - NullCount is O(1) once the column is sealed — its chunk seal records
//     the count — and one scan before that. Any Fingerprint call seals
//     every column, so by the time the engine prepares a table the count
//     is free; rank-once optimizations (the Spearman dependency matrix) use
//     it to find the NULL-free columns whose per-column ranks are reusable
//     across pairs.
package frame
