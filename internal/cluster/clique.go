package cluster

import "sort"

// Graph is a simple undirected graph over vertices 0..n-1, used to
// enumerate maximal cliques of the column dependency graph (the alternative
// candidate generator the paper mentions alongside clustering).
type Graph struct {
	n   int
	adj [][]bool
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	return &Graph{n: n, adj: adj}
}

// GraphFromThreshold builds the dependency graph: an edge joins columns
// whose dependency meets or exceeds minDep. dep is an n×n row-major
// dependency matrix.
func GraphFromThreshold(dep []float64, n int, minDep float64) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dep[i*n+j] >= minDep {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// AddEdge connects u and v (no-op for self loops).
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool { return g.adj[u][v] }

// MaximalCliques enumerates all maximal cliques using Bron-Kerbosch with
// pivoting. Cliques are returned as sorted vertex slices, largest first
// (ties by smallest first vertex). maxCliques bounds the enumeration to
// protect against pathological graphs; 0 means unbounded.
func (g *Graph) MaximalCliques(maxCliques int) [][]int {
	var out [][]int
	all := make([]int, g.n)
	for i := range all {
		all[i] = i
	}
	var bk func(r, p, x []int)
	bk = func(r, p, x []int) {
		if maxCliques > 0 && len(out) >= maxCliques {
			return
		}
		if len(p) == 0 && len(x) == 0 {
			clique := make([]int, len(r))
			copy(clique, r)
			sort.Ints(clique)
			out = append(out, clique)
			return
		}
		// Choose the pivot with the most neighbours in p to minimize
		// branching.
		pivot := -1
		best := -1
		for _, cand := range append(append([]int{}, p...), x...) {
			cnt := 0
			for _, v := range p {
				if g.adj[cand][v] {
					cnt++
				}
			}
			if cnt > best {
				best = cnt
				pivot = cand
			}
		}
		// Iterate over p minus neighbours of the pivot.
		candidates := make([]int, 0, len(p))
		for _, v := range p {
			if pivot < 0 || !g.adj[pivot][v] {
				candidates = append(candidates, v)
			}
		}
		for _, v := range candidates {
			var np, nx []int
			for _, u := range p {
				if g.adj[v][u] {
					np = append(np, u)
				}
			}
			for _, u := range x {
				if g.adj[v][u] {
					nx = append(nx, u)
				}
			}
			bk(append(r, v), np, nx)
			// Move v from p to x.
			for i, u := range p {
				if u == v {
					p = append(p[:i], p[i+1:]...)
					break
				}
			}
			x = append(x, v)
		}
	}
	bk(nil, all, nil)
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}
