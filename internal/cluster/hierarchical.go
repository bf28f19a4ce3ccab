// Package cluster implements the graph-partitioning algorithms Ziggy's view
// search uses to generate candidate views (paper §3): agglomerative
// hierarchical clustering over the column dependency graph — with complete
// linkage as the paper's choice, and single/average linkage for ablation —
// plus Bron-Kerbosch maximal clique enumeration as the alternative
// candidate generator the paper mentions.
//
// Inputs are symmetric distance matrices. The engine derives distances from
// dependencies as d = 1 - S, so cutting a complete-linkage dendrogram at
// height 1 - MIN_tight yields exactly the groups whose minimum pairwise
// dependency is at least MIN_tight (Equation 2's tightness constraint).
package cluster

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Linkage selects the inter-cluster distance update rule.
type Linkage int

const (
	// Complete linkage merges on the maximum pairwise distance (the
	// paper's choice: guarantees the tightness bound inside every
	// cluster).
	Complete Linkage = iota
	// Single linkage merges on the minimum pairwise distance.
	Single
	// Average linkage (UPGMA) merges on the mean pairwise distance.
	Average
)

// String names the linkage.
func (l Linkage) String() string {
	switch l {
	case Complete:
		return "complete"
	case Single:
		return "single"
	case Average:
		return "average"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// ParseLinkage resolves a linkage name used in CLI flags.
func ParseLinkage(s string) (Linkage, error) {
	switch s {
	case "complete", "":
		return Complete, nil
	case "single":
		return Single, nil
	case "average":
		return Average, nil
	default:
		return Complete, fmt.Errorf("cluster: unknown linkage %q", s)
	}
}

// Merge records one agglomeration step. Cluster ids are 0..n-1 for leaves
// and n+step for the cluster created at the given step.
type Merge struct {
	// A and B are the merged cluster ids.
	A, B int
	// Height is the linkage distance at which the merge happened.
	Height float64
	// Size is the number of leaves in the merged cluster.
	Size int
}

// Dendrogram is the full merge tree produced by Agglomerate.
type Dendrogram struct {
	// NumLeaves is the number of original observations.
	NumLeaves int
	// Merges lists the n-1 agglomeration steps in order of height.
	Merges []Merge
}

// Agglomerate runs agglomerative hierarchical clustering over an n×n
// row-major distance matrix. It uses the Lance-Williams update, O(n³) time
// and O(n²) space, which is ample for the column counts Ziggy faces (the
// paper's largest dataset has 519 columns).
func Agglomerate(dist []float64, n int, linkage Linkage) (*Dendrogram, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one observation")
	}
	if len(dist) != n*n {
		return nil, fmt.Errorf("cluster: distance matrix has %d entries, want %d", len(dist), n*n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := dist[i*n+j]
			if math.IsNaN(d) || d < 0 {
				return nil, fmt.Errorf("cluster: invalid distance %v at (%d,%d)", d, i, j)
			}
			if math.Abs(d-dist[j*n+i]) > 1e-9 {
				return nil, fmt.Errorf("cluster: distance matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}

	dd := &Dendrogram{NumLeaves: n}
	if n == 1 {
		return dd, nil
	}

	// work is the current inter-cluster distance matrix; active maps the
	// current row index to a cluster id; size tracks leaf counts.
	work := make([]float64, len(dist))
	copy(work, dist)
	active := make([]int, n)
	size := make([]int, n)
	for i := range active {
		active[i] = i
		size[i] = 1
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}

	for step := 0; step < n-1; step++ {
		// Find the closest pair among alive rows.
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !alive[j] {
					continue
				}
				if d := work[i*n+j]; d < best {
					best = d
					bi, bj = i, j
				}
			}
		}
		newSize := size[bi] + size[bj]
		dd.Merges = append(dd.Merges, Merge{A: active[bi], B: active[bj], Height: best, Size: newSize})

		// Lance-Williams update into row bi; retire row bj.
		for k := 0; k < n; k++ {
			if !alive[k] || k == bi || k == bj {
				continue
			}
			dik := work[bi*n+k]
			djk := work[bj*n+k]
			var d float64
			switch linkage {
			case Single:
				d = math.Min(dik, djk)
			case Average:
				d = (float64(size[bi])*dik + float64(size[bj])*djk) / float64(newSize)
			default: // Complete
				d = math.Max(dik, djk)
			}
			work[bi*n+k] = d
			work[k*n+bi] = d
		}
		active[bi] = n + step
		size[bi] = newSize
		alive[bj] = false
	}
	return dd, nil
}

// CutAt returns the flat clusters obtained by cutting the dendrogram at the
// given height: every merge with Height <= h is applied. Each cluster is a
// sorted slice of leaf indices; clusters are ordered by their smallest leaf.
func (d *Dendrogram) CutAt(h float64) [][]int {
	parent := make([]int, d.NumLeaves+len(d.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for step, m := range d.Merges {
		if m.Height <= h {
			id := d.NumLeaves + step
			parent[find(m.A)] = id
			parent[find(m.B)] = id
		}
	}
	groups := make(map[int][]int)
	for leaf := 0; leaf < d.NumLeaves; leaf++ {
		root := find(leaf)
		groups[root] = append(groups[root], leaf)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Render draws a crude text dendrogram listing merges bottom-up; the demo
// server exposes it so users can pick MIN_tight visually.
func (d *Dendrogram) Render(labels []string) string {
	var b strings.Builder
	name := func(id int) string {
		if id < d.NumLeaves {
			if labels != nil && id < len(labels) {
				return labels[id]
			}
			return fmt.Sprintf("leaf-%d", id)
		}
		return fmt.Sprintf("cluster-%d", id-d.NumLeaves)
	}
	for i, m := range d.Merges {
		fmt.Fprintf(&b, "[%3d] h=%.4f  %s + %s (size %d)\n", i, m.Height, name(m.A), name(m.B), m.Size)
	}
	return b.String()
}
