// Package baseline implements the comparison methods for the accuracy
// experiments (experiment x3 in the internal/experiments index): classic
// subspace-search approaches that, unlike Ziggy, either operate as
// statistical black boxes or ignore the exploration context entirely
// (paper §1's discussion of dimensionality reduction and multidimensional
// visualization).
//
//   - KLBeam: beam search maximizing the Gaussian Kullback-Leibler
//     divergence between the selection and its complement — the "black
//     box" divergence the paper contrasts with the Zig-Dissimilarity.
//   - CentroidGreedy: ranks columns by standardized centroid distance and
//     chunks them into views — the "distance between the centroids"
//     divergence of §2.1.
//   - PCA: principal component loadings of the full table, ignoring the
//     selection — the dimensionality-reduction strawman of §1.
//   - Random: uniformly random disjoint views — the floor.
//   - FullSpace: a single view containing every column — what Equation 1
//     would pick without the tightness constraint.
//
// All methods implement Method and return up to k views of at most d
// columns, mirroring the engine's output contract so the harness can score
// them interchangeably.
package baseline
