package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/randx"
)

// referenceRanks is the pre-kernel comparison implementation: a stable
// sort.Slice on the values themselves followed by the same tie-walk as
// RanksIdxWith. Every kernel must reproduce its ranks, rank sum and tie
// correction bit-for-bit.
func referenceRanks(xs []float64) (ranks []float64, tieSum float64) {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks = make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		if tlen := float64(j - i + 1); tlen > 1 {
			tieSum += tlen*tlen*tlen - tlen
		}
		i = j + 1
	}
	return ranks, tieSum
}

// kernelColumns builds the differential corpus: every shape the selector
// distinguishes, each annotated with the kernel it must pick.
func kernelColumns() []struct {
	name   string
	kernel string
	xs     []float64
} {
	r := randx.New(7331)
	mk := func(n int, f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	cases := []struct {
		name   string
		kernel string
		xs     []float64
	}{
		{"small-n", "fallback", mk(20, func(int) float64 { return r.NormFloat64() })},
		{"small-n-ties", "fallback", mk(48, func(int) float64 { return float64(r.Intn(3)) })},
		{"random-floats", "radix", mk(500, func(int) float64 { return r.NormFloat64() })},
		{"random-uniform", "radix", mk(1000, func(int) float64 { return r.Uniform(-1e6, 1e6) })},
		{"heavy-ties-frac", "radix", mk(400, func(int) float64 { return 0.5 * float64(r.Intn(5)) })},
		{"signed-zeros", "radix", mk(300, func(i int) float64 {
			switch r.Intn(4) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			default:
				return float64(r.Intn(3) - 1)
			}
		})},
		{"infinities", "radix", mk(200, func(i int) float64 {
			switch r.Intn(6) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			default:
				return r.NormFloat64()
			}
		})},
		{"narrow-band", "radix", mk(600, func(int) float64 { return 1 + r.Float64()/1024 })},
		{"low-card-ints", "counting", mk(500, func(int) float64 { return float64(r.Intn(16)) })},
		{"dict-codes", "counting", mk(2000, func(int) float64 { return float64(r.Intn(64)) })},
		{"negative-ints", "counting", mk(300, func(int) float64 { return float64(r.Intn(41) - 20) })},
		{"int-pair", "counting", mk(256, func(i int) float64 { return float64(i & 1) })},
		{"wide-ints", "radix", mk(128, func(int) float64 { return float64(r.Intn(1 << 20)) })},
		{"huge-span-ints", "radix", mk(100, func(i int) float64 {
			if i == 0 {
				return -math.MaxFloat64
			}
			return math.MaxFloat64 * r.Float64()
		})},
	}
	return cases
}

// TestKernelSelection pins the selector's choice for every corpus shape.
func TestKernelSelection(t *testing.T) {
	for _, c := range kernelColumns() {
		if got := KernelFor(c.xs); got != c.kernel {
			t.Errorf("%s: KernelFor = %q, want %q", c.name, got, c.kernel)
		}
	}
}

// TestKernelsDifferential pins every kernel to the reference comparison
// ranking bit-for-bit, over the full corpus: ranks, tie correction. Each
// eligible kernel is forced explicitly (not just the selector's pick), with
// a nil scratch, a fresh scratch, and a scratch reused across all cases —
// so buffer reuse across columns of different sizes and strategies cannot
// leak state.
func TestKernelsDifferential(t *testing.T) {
	shared := &RankScratch{}
	for _, c := range kernelColumns() {
		wantRanks, wantTie := referenceRanks(c.xs)
		n := len(c.xs)

		kernels := []kernelKind{kernelFallback, kernelRadix}
		selK, lo, span := chooseKernel(c.xs, identity(make([]int32, n)))
		if selK == kernelCounting {
			kernels = append(kernels, kernelCounting)
		}
		for _, k := range kernels {
			for _, s := range []*RankScratch{nil, {}, shared} {
				dst := make([]float64, n)
				idx := identity(make([]int32, n))
				sortPermKernel(s, idx, c.xs, k, lo, span)
				// Re-walk ties exactly as RanksIdxWith does, plus the
				// tie correction.
				tie := 0.0
				for i := 0; i < n; {
					j := i
					for j+1 < n && c.xs[idx[j+1]] == c.xs[idx[i]] {
						j++
					}
					avg := float64(i+j)/2 + 1
					for m := i; m <= j; m++ {
						dst[idx[m]] = avg
					}
					if tlen := float64(j - i + 1); tlen > 1 {
						tie += tlen*tlen*tlen - tlen
					}
					i = j + 1
				}
				if math.Float64bits(tie) != math.Float64bits(wantTie) {
					t.Errorf("%s kernel=%d: tieSum = %v, want %v", c.name, k, tie, wantTie)
				}
				for i := range dst {
					if math.Float64bits(dst[i]) != math.Float64bits(wantRanks[i]) {
						t.Fatalf("%s kernel=%d: rank[%d] = %v, want %v", c.name, k, i, dst[i], wantRanks[i])
					}
				}
				// The permutation must order values ascending with equal
				// values key-ordered (-0 strictly before +0).
				for i := 1; i < n; i++ {
					if floatKey(c.xs[idx[i-1]]) > floatKey(c.xs[idx[i]]) {
						t.Fatalf("%s kernel=%d: perm not in key order at %d", c.name, k, i)
					}
				}
			}
		}
	}
}

// TestRankingKernelsZeroAlloc asserts a warmed scratch orders and ranks
// without allocating for the radix and counting kernels, and that the
// per-query walk of an order never allocates — the properties the CI
// zero-allocs benchmark gate enforces end to end.
func TestRankingKernelsZeroAlloc(t *testing.T) {
	r := randx.New(99)
	radixCol := make([]float64, 2048)
	countCol := make([]float64, 2048)
	for i := range radixCol {
		radixCol[i] = r.NormFloat64()
		countCol[i] = float64(r.Intn(32))
	}
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"radix", radixCol}, {"counting", countCol}} {
		if got := KernelFor(c.xs); got != c.name {
			t.Fatalf("fixture %s selects kernel %q", c.name, got)
		}
		s := &RankScratch{}
		dst := make([]float64, len(c.xs))
		idx := make([]int32, len(c.xs))
		RanksIdxWith(s, dst, idx, c.xs) // warm the scratch
		if allocs := testing.AllocsPerRun(10, func() {
			RanksIdxWith(s, dst, idx, c.xs)
		}); allocs != 0 {
			t.Errorf("%s kernel: ranks cost %v allocs/op with warmed scratch, want 0", c.name, allocs)
		}
		order := Order(s, idx, c.xs)
		if allocs := testing.AllocsPerRun(10, func() {
			order = Order(s, idx, c.xs)
		}); allocs != 0 {
			t.Errorf("%s kernel: Order cost %v allocs/op with warmed scratch, want 0", c.name, allocs)
		}
		sel := make([]uint64, (len(c.xs)+63)/64)
		for i := range sel {
			sel[i] = 0x5555555555555555
		}
		na := (len(c.xs) + 1) / 2
		if allocs := testing.AllocsPerRun(10, func() {
			OrderRanking(c.xs, order, sel, nil, na, len(c.xs)-na)
		}); allocs != 0 {
			t.Errorf("%s kernel: OrderRanking cost %v allocs/op, want 0", c.name, allocs)
		}
	}
}
