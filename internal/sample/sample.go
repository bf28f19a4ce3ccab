package sample

import (
	"sort"

	"repro/internal/frame"
	"repro/internal/randx"
)

// Reservoir returns k distinct indices drawn uniformly from [0, n) in
// ascending order, using reservoir sampling (algorithm R). If k >= n all
// indices are returned.
func Reservoir(r *randx.Source, n, k int) []int {
	if k <= 0 || n <= 0 {
		return nil
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	res := make([]int, k)
	for i := 0; i < k; i++ {
		res[i] = i
	}
	for i := k; i < n; i++ {
		j := r.Intn(i + 1)
		if j < k {
			res[j] = i
		}
	}
	// Ascending order keeps downstream scans cache-friendly and
	// deterministic.
	sort.Ints(res)
	return res
}

// Subset returns a bitmap over n rows marking k rows sampled uniformly
// from the rows set in from.
func Subset(r *randx.Source, from *frame.Bitmap, k int) *frame.Bitmap {
	idx := from.Indices()
	picked := Reservoir(r, len(idx), k)
	out := frame.NewBitmap(from.Len())
	for _, p := range picked {
		out.Set(idx[p])
	}
	return out
}

// Stratified builds a "consider" bitmap of at most cap rows, allocating
// capacity between the selection and its complement proportionally to
// their sizes but guaranteeing each stratum at least minPerSide rows
// (bounded by the stratum size). The same seed always yields the same
// sample, so repeated characterizations are stable.
func Stratified(sel *frame.Bitmap, cap, minPerSide int, seed uint64) *frame.Bitmap {
	n := sel.Len()
	if cap <= 0 || cap >= n {
		full := frame.NewBitmap(n)
		full.SetAll()
		return full
	}
	nIn := sel.Count()
	nOut := n - nIn

	kIn := int(float64(cap) * float64(nIn) / float64(n))
	kOut := cap - kIn
	if minPerSide > 0 {
		if kIn < minPerSide {
			kIn = minPerSide
		}
		if kOut < minPerSide {
			kOut = minPerSide
		}
	}
	if kIn > nIn {
		kIn = nIn
	}
	if kOut > nOut {
		kOut = nOut
	}

	r := randx.New(seed)
	inSample := Subset(r, sel, kIn)
	outSample := Subset(r, sel.Clone().Not(), kOut)
	return inSample.Or(outSample)
}
