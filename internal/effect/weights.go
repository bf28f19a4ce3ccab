package effect

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Weights maps component kinds to user preference weights for the
// Zig-Dissimilarity (paper §2.2: "The weights in the final sum are defined
// by the user. Thanks to this mechanism, our explorers can express their
// preference for one type of difference over the others.").
type Weights map[Kind]float64

// DefaultWeights weighs every component family equally.
func DefaultWeights() Weights {
	return Weights{
		DiffMeans:           1,
		DiffStdDevs:         1,
		DiffCorrelations:    1,
		DiffFrequencies:     1,
		DiffLocationsRobust: 1,
	}
}

// Get returns the weight for kind, defaulting to 0 for unlisted kinds.
func (w Weights) Get(k Kind) float64 {
	if w == nil {
		return 0
	}
	return w[k]
}

// Validate rejects negative or non-finite weights and all-zero weight sets.
func (w Weights) Validate() error {
	total := 0.0
	for k, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("effect: invalid weight %v for %v", v, k)
		}
		total += v
	}
	if total <= 0 {
		return fmt.Errorf("effect: all weights are zero")
	}
	return nil
}

// Clone returns an independent copy.
func (w Weights) Clone() Weights {
	out := make(Weights, len(w))
	for k, v := range w {
		out[k] = v
	}
	return out
}

// String renders the weights deterministically (sorted by kind).
func (w Weights) String() string {
	kinds := make([]Kind, 0, len(w))
	for k := range w {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%v=%g", k, w[k]))
	}
	return strings.Join(parts, ",")
}

// Score computes the Zig-Dissimilarity of a set of components: the weighted
// sum of normalized magnitudes over valid components (Equation 1
// instantiated with the composite measure of §2.2). Invalid components
// contribute nothing.
func Score(components []Component, w Weights) float64 {
	if w == nil {
		w = DefaultWeights()
	}
	sum := 0.0
	for _, c := range components {
		if !c.Valid() {
			continue
		}
		sum += w.Get(c.Kind) * c.Norm
	}
	return sum
}
