package cluster

import (
	"reflect"
	"testing"

	"repro/internal/randx"
)

func TestMaximalCliquesTriangle(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2) // triangle 0-1-2
	g.AddEdge(2, 3) // pendant edge
	cliques := g.MaximalCliques(0)
	want := [][]int{{0, 1, 2}, {2, 3}, {3}}
	_ = want
	// Expected maximal cliques: {0,1,2} and {2,3}.
	if len(cliques) != 2 {
		t.Fatalf("cliques = %v, want 2 cliques", cliques)
	}
	if !reflect.DeepEqual(cliques[0], []int{0, 1, 2}) {
		t.Fatalf("largest clique = %v, want [0 1 2]", cliques[0])
	}
	if !reflect.DeepEqual(cliques[1], []int{2, 3}) {
		t.Fatalf("second clique = %v, want [2 3]", cliques[1])
	}
}

func TestMaximalCliquesEmptyGraph(t *testing.T) {
	g := NewGraph(3)
	cliques := g.MaximalCliques(0)
	// Each isolated vertex is a maximal clique of size 1.
	if len(cliques) != 3 {
		t.Fatalf("isolated vertices: %v", cliques)
	}
	for _, c := range cliques {
		if len(c) != 1 {
			t.Fatalf("isolated clique size %d", len(c))
		}
	}
}

func TestMaximalCliquesCompleteGraph(t *testing.T) {
	n := 6
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	cliques := g.MaximalCliques(0)
	if len(cliques) != 1 || len(cliques[0]) != n {
		t.Fatalf("complete graph cliques = %v", cliques)
	}
}

func TestMaximalCliquesBound(t *testing.T) {
	// A perfect matching on 20 vertices has 10 maximal cliques; the bound
	// must truncate enumeration.
	g := NewGraph(20)
	for i := 0; i < 20; i += 2 {
		g.AddEdge(i, i+1)
	}
	cliques := g.MaximalCliques(3)
	if len(cliques) > 3 {
		t.Fatalf("bound ignored: %d cliques", len(cliques))
	}
}

// Verify against brute force on random graphs: every returned set is a
// clique and is maximal.
func TestMaximalCliquesAreMaximalCliques(t *testing.T) {
	r := randx.New(99)
	for trial := 0; trial < 10; trial++ {
		n := 8 + r.Intn(5)
		g := NewGraph(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Bernoulli(0.4) {
					g.AddEdge(i, j)
				}
			}
		}
		cliques := g.MaximalCliques(0)
		seen := map[string]bool{}
		for _, c := range cliques {
			key := ""
			for _, v := range c {
				key += string(rune('a' + v))
			}
			if seen[key] {
				t.Fatal("duplicate clique")
			}
			seen[key] = true
			// Clique property.
			for a := 0; a < len(c); a++ {
				for b := a + 1; b < len(c); b++ {
					if !g.HasEdge(c[a], c[b]) {
						t.Fatalf("not a clique: %v", c)
					}
				}
			}
			// Maximality: no outside vertex adjacent to all members.
			for v := 0; v < n; v++ {
				inClique := false
				for _, u := range c {
					if u == v {
						inClique = true
						break
					}
				}
				if inClique {
					continue
				}
				all := true
				for _, u := range c {
					if !g.HasEdge(v, u) {
						all = false
						break
					}
				}
				if all {
					t.Fatalf("clique %v not maximal: %d extends it", c, v)
				}
			}
		}
	}
}

func TestGraphFromThreshold(t *testing.T) {
	dep := []float64{
		1, 0.9, 0.1,
		0.9, 1, 0.5,
		0.1, 0.5, 1,
	}
	g := GraphFromThreshold(dep, 3, 0.5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("thresholded edges wrong")
	}
	if g.N() != 3 {
		t.Fatal("N wrong")
	}
}

func TestAddEdgeSelfLoopIgnored(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(1, 1)
	if g.HasEdge(1, 1) {
		t.Fatal("self loop stored")
	}
}

func BenchmarkAgglomerate128(b *testing.B) {
	r := randx.New(1)
	n := 128
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := r.Float64()
			d[i*n+j] = v
			d[j*n+i] = v
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Agglomerate(d, n, Complete); err != nil {
			b.Fatal(err)
		}
	}
}
