package stats

import (
	"math"
	"sort"
)

// The ranking kernels: every ranking pass in the system sorts an index
// permutation by column value, and this file picks how. Three strategies
// cover the shapes the characterization pipeline actually sees:
//
//   - fallback: the comparison sort (sort.Slice). Cheapest for small n,
//     where a radix pass's fixed costs dominate.
//   - counting: a stable counting sort for columns whose values are all
//     integral in a narrow range — dictionary codes and other
//     low-cardinality numerics. O(n + range).
//   - radix: an 8-pass LSD radix sort over the order-preserving bit-flip
//     of the IEEE-754 representation. O(n) per pass, no comparisons,
//     handles every NaN-free float64.
//
// All three produce a permutation ordering the values by floatKey — a
// total order equal to < except that it places -0 before +0 (distinct
// keys). Rank assignment, tie correction, and every downstream consumer
// (medians, quantiles) detect ties by value equality, under which -0 == +0,
// so the three kernels are observationally identical; the differential
// tests in kernels_test.go pin that bit-for-bit.
//
// Buffers live in RankScratch so a warmed-up worker ranks with zero
// allocations; a nil scratch falls back to fresh allocations everywhere.

// RankScratch holds the reusable kernel buffers: radix keys and their
// ping-pong partner, the permutation ping-pong buffer, and the counting
// buckets. The zero value is ready to use; the engine keeps one per worker
// while it orders a table's columns, so those ranking passes stop
// allocating after the first column.
type RankScratch struct {
	keys, tmpKeys []uint64
	tmpIdx        []int32
	counts        []int
}

// sizedUints returns a length-n slice backed by *buf without zeroing.
func sizedUints(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
		return *buf
	}
	return (*buf)[:n]
}

// radixBuffers returns the three length-n radix work arrays, reused from
// the scratch when present.
func (s *RankScratch) radixBuffers(n int) (keys, tmpKeys []uint64, tmpIdx []int32) {
	if s == nil {
		return make([]uint64, n), make([]uint64, n), make([]int32, n)
	}
	keys = sizedUints(&s.keys, n)
	tmpKeys = sizedUints(&s.tmpKeys, n)
	if cap(s.tmpIdx) < n {
		s.tmpIdx = make([]int32, n)
	}
	return keys, tmpKeys, s.tmpIdx[:n]
}

// countingBuffers returns a zeroed length-k bucket array and a length-n
// output permutation buffer, reused from the scratch when present.
func (s *RankScratch) countingBuffers(k, n int) (counts []int, tmpIdx []int32) {
	if s == nil {
		return make([]int, k), make([]int32, n)
	}
	if cap(s.counts) < k {
		s.counts = make([]int, k)
	}
	counts = s.counts[:k]
	for i := range counts {
		counts[i] = 0
	}
	if cap(s.tmpIdx) < n {
		s.tmpIdx = make([]int32, n)
	}
	return counts, s.tmpIdx[:n]
}

const signBit = uint64(1) << 63

// floatKey maps a non-NaN float64 to a uint64 whose unsigned order matches
// numeric order: positive floats get the sign bit set (shifting them above
// all negatives), negative floats are wholly complemented (reversing their
// magnitude order). -0 and +0 map to adjacent distinct keys with -0 first.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b&signBit != 0 {
		return ^b
	}
	return b | signBit
}

// kernelKind names a sort strategy.
type kernelKind uint8

const (
	kernelFallback kernelKind = iota
	kernelCounting
	kernelRadix
)

const (
	// fallbackMaxN is the largest column the comparison sort keeps: below
	// this the radix passes' fixed histogram costs outweigh O(n log n).
	fallbackMaxN = 64
	// countingMaxRange caps the counting-sort bucket range (64 KiB of
	// buckets); wider integral columns take the radix path.
	countingMaxRange = 1 << 16
)

// chooseKernel scans the values xs[idx[i]] once and picks the cheapest
// kernel: fallback for small n; counting when every value is integral in a
// range narrow both absolutely and relative to n; radix otherwise. Columns
// containing -0 are excluded from counting (its buckets would conflate -0
// with +0 while the key-ordered kernels separate them). The indexed values
// must be NaN-free: Order skips NaN rows and NewRanking screens NaN before
// any kernel runs.
func chooseKernel(xs []float64, idx []int32) (k kernelKind, lo int64, span int) {
	if len(idx) <= fallbackMaxN {
		return kernelFallback, 0, 0
	}
	minI, maxI := int64(math.MaxInt64), int64(math.MinInt64)
	for _, id := range idx {
		v := xs[id]
		iv := int64(v)
		if float64(iv) != v || (iv == 0 && math.Signbit(v)) {
			return kernelRadix, 0, 0
		}
		if iv < minI {
			minI = iv
		}
		if iv > maxI {
			maxI = iv
		}
	}
	// Two's-complement subtraction yields the correct unsigned width even
	// when maxI-minI overflows int64.
	uspan := uint64(maxI) - uint64(minI)
	limit := uint64(8 * len(idx))
	if limit > countingMaxRange {
		limit = countingMaxRange
	}
	if uspan < limit {
		return kernelCounting, minI, int(uspan)
	}
	return kernelRadix, 0, 0
}

// KernelFor reports which ranking kernel the selector would run for the
// NaN-free xs: "radix", "counting" or "fallback". Exposed for benchmarks and
// tests that pin a specific strategy to a fixture shape.
func KernelFor(xs []float64) string {
	switch k, _, _ := chooseKernel(xs, identity(make([]int32, len(xs)))); k {
	case kernelCounting:
		return "counting"
	case kernelRadix:
		return "radix"
	default:
		return "fallback"
	}
}

// identity fills idx with 0, 1, …, len(idx)−1 and returns it.
func identity(idx []int32) []int32 {
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// sortPermKernel sorts idx so xs indexed through it ascends in floatKey
// order, using the given kernel; idx holds distinct indices into xs (a
// permutation of [0, len(xs)), or the non-NaN subset of one).
func sortPermKernel(s *RankScratch, idx []int32, xs []float64, k kernelKind, lo int64, span int) {
	switch k {
	case kernelCounting:
		countingSortPerm(s, idx, xs, lo, span)
	case kernelRadix:
		radixSortPerm(s, idx, xs)
	default:
		sort.Slice(idx, func(a, b int) bool { return floatKey(xs[idx[a]]) < floatKey(xs[idx[b]]) })
	}
}

// radixSortPerm is the LSD radix kernel: 8 byte-wide passes over the
// bit-flipped keys, each scattering (key, index) pairs into the ping-pong
// buffers in bucket order. All 8 histograms are built in the single
// pre-pass (the key multiset never changes, so they stay valid for every
// pass), and a pass whose digit is shared by all keys is skipped — columns
// with values in a narrow exponent band sort in 2-3 passes.
func radixSortPerm(s *RankScratch, idx []int32, xs []float64) {
	n := len(idx)
	keys, tmpKeys, tmpIdx := s.radixBuffers(n)
	for i, id := range idx {
		keys[i] = floatKey(xs[id])
	}
	var counts [8][256]int
	for _, k := range keys {
		counts[0][k&0xff]++
		counts[1][(k>>8)&0xff]++
		counts[2][(k>>16)&0xff]++
		counts[3][(k>>24)&0xff]++
		counts[4][(k>>32)&0xff]++
		counts[5][(k>>40)&0xff]++
		counts[6][(k>>48)&0xff]++
		counts[7][(k>>56)&0xff]++
	}
	src, dst := keys, tmpKeys
	srcIdx, dstIdx := idx, tmpIdx
	for d := 0; d < 8; d++ {
		shift := uint(d * 8)
		c := &counts[d]
		if c[(src[0]>>shift)&0xff] == n {
			continue // every key shares this digit
		}
		var offs [256]int
		sum := 0
		for b := 0; b < 256; b++ {
			offs[b] = sum
			sum += c[b]
		}
		for i, k := range src {
			b := (k >> shift) & 0xff
			p := offs[b]
			offs[b]++
			dst[p] = k
			dstIdx[p] = srcIdx[i]
		}
		src, dst = dst, src
		srcIdx, dstIdx = dstIdx, srcIdx
	}
	if &srcIdx[0] != &idx[0] {
		copy(idx, srcIdx)
	}
}

// countingSortPerm is the stable counting kernel for integral columns in
// [lo, lo+span]: one bucket per distinct value, one histogram pass, one
// scatter pass. Stability keeps equal values in ascending original order,
// matching what the downstream tie-walk assumes of any kernel.
func countingSortPerm(s *RankScratch, idx []int32, xs []float64, lo int64, span int) {
	n := len(idx)
	counts, tmpIdx := s.countingBuffers(span+1, n)
	for _, id := range idx {
		counts[int64(xs[id])-lo]++
	}
	sum := 0
	for b := range counts {
		c := counts[b]
		counts[b] = sum
		sum += c
	}
	for _, id := range idx {
		b := int64(xs[id]) - lo
		tmpIdx[counts[b]] = id
		counts[b]++
	}
	copy(idx, tmpIdx)
}
