package stats

import "math"

// The ranking kernel: every ranking pass in the system sorts an index
// permutation by column value, and this file holds the one sort that does
// it — an LSD radix sort over the order-preserving bit-flip of the IEEE-754
// representation (floatKey). It costs O(n) per byte-wide pass with no
// comparisons, handles every NaN-free float64, and skips the passes whose digit all
// keys share, so columns in a narrow exponent band sort in 2-3 passes.
//
// floatKey is a total order equal to < except that it places -0 before +0
// (distinct keys). Rank assignment, tie correction, and every downstream
// consumer (medians, quantiles) detect ties by value equality, under which
// -0 == +0, so the two zeros form one tie group; the differential tests in
// kernels_test.go and walk_test.go pin that bit-for-bit against
// comparison-sort references.
//
// Buffers live in RankScratch so a warmed-up worker ranks with zero
// allocations; a nil scratch falls back to fresh allocations everywhere.

// RankScratch holds the reusable radix buffers: the keys, their ping-pong
// partner, and the permutation ping-pong buffer. The zero value is ready to
// use; the engine keeps one per worker while it orders a table's columns,
// so those ranking passes stop allocating after the first column.
type RankScratch struct {
	keys, tmpKeys []uint64
	tmpIdx        []int32
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

// radixSortPerm sorts idx so xs indexed through it ascends in floatKey
// order; idx holds distinct indices into xs (a permutation of
// [0, len(xs)), or the non-NaN subset of one). It runs 8 byte-wide passes
// over the bit-flipped keys, each scattering (key, index) pairs into the
// ping-pong buffers in bucket order, so equal keys keep their input order.
// All 8 histograms are built in the single pre-pass (the key multiset never
// changes, so they stay valid for every pass), and a pass whose digit is
// shared by all keys is skipped.
func radixSortPerm(s *RankScratch, idx []int32, xs []float64) {
	n := len(idx)
	if n < 2 {
		return // already sorted; the skip test below reads src[0]
	}
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
