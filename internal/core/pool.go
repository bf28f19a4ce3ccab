package core

import (
	"math"
	"math/bits"

	"repro/internal/effect"
	"repro/internal/frame"
	"repro/internal/par"
)

// workers returns the effective worker count for this engine's parallel
// stages: Config.Parallelism, with 0 meaning all CPUs. Each stage reads it
// once and passes the same count to both its scratch pool and par.For, so
// worker indices always address a valid scratch slot.
func (e *Engine) workers() int { return par.Workers(e.cfg.Parallelism) }

// scratchPool lazily allocates one scratch per worker. Worker indices are
// goroutine-stable for the duration of one par.For, so slot access needs
// no locking.
type scratchPool struct {
	slots []*scoreScratch
}

func newScratchPool(workers int) *scratchPool {
	return &scratchPool{slots: make([]*scoreScratch, workers)}
}

// get returns worker w's scratch, allocating it on first use.
func (p *scratchPool) get(w int) *scoreScratch {
	if p.slots[w] == nil {
		p.slots[w] = &scoreScratch{}
	}
	return p.slots[w]
}

// scoreScratch holds the per-worker buffers reused across column and
// candidate tasks: the one-column splits feeding the 1D components, the
// row-aligned splits feeding the two-dimensional components, and the
// effect-size scratch. Everything here is consumed before the task returns
// — nothing scratch-backed escapes into a colData or a View.
type scoreScratch struct {
	inA, inB, outA, outB []float64
	catIn, catOut        []int32
	eff                  effect.Scratch
}

// emptied returns *buf emptied, with capacity for n values.
func emptied[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, 0, n)
	}
	return (*buf)[:0]
}

// numericSplit extracts the non-NULL values of a numeric column split by
// sel, restricted to the consider bitmap when non-nil, into the scratch.
// Each side is sized for the whole column up front, so a split never
// regrows. The returned slices are valid until the next split.
func (s *scoreScratch) numericSplit(c *frame.Column, sel, consider *frame.Bitmap) (in, out []float64) {
	floats := c.Floats()
	in, out = emptied(&s.inA, len(floats)), emptied(&s.outA, len(floats))
	splitWords(len(floats), sel, consider, func(base int, inW, outW uint64) {
		for ; inW != 0; inW &= inW - 1 {
			if v := floats[base+bits.TrailingZeros64(inW)]; !math.IsNaN(v) {
				in = append(in, v)
			}
		}
		for ; outW != 0; outW &= outW - 1 {
			if v := floats[base+bits.TrailingZeros64(outW)]; !math.IsNaN(v) {
				out = append(out, v)
			}
		}
	})
	return in, out
}

// categoricalSplit extracts the non-NULL dictionary codes of a categorical
// column split by sel, restricted to consider when non-nil, into the
// scratch under numericSplit's rules.
func (s *scoreScratch) categoricalSplit(c *frame.Column, sel, consider *frame.Bitmap) (in, out []int32) {
	codes := c.Codes()
	in, out = emptied(&s.catIn, len(codes)), emptied(&s.catOut, len(codes))
	splitWords(len(codes), sel, consider, func(base int, inW, outW uint64) {
		for ; inW != 0; inW &= inW - 1 {
			if code := codes[base+bits.TrailingZeros64(inW)]; code >= 0 {
				in = append(in, code)
			}
		}
		for ; outW != 0; outW &= outW - 1 {
			if code := codes[base+bits.TrailingZeros64(outW)]; code >= 0 {
				out = append(out, code)
			}
		}
	})
	return in, out
}

// alignedSplit extracts row-aligned complete cases of two numeric columns,
// split by the selection mask and restricted to consider when non-nil,
// walking the selection words like numericSplit. The returned slices
// alias the scratch and are valid until the next call.
func (s *scoreScratch) alignedSplit(a, b *frame.Column, sel, consider *frame.Bitmap) (inA, inB, outA, outB []float64) {
	inA, inB = s.inA[:0], s.inB[:0]
	outA, outB = s.outA[:0], s.outB[:0]
	af, bf := a.Floats(), b.Floats()
	splitWords(len(af), sel, consider, func(base int, inW, outW uint64) {
		for ; inW != 0; inW &= inW - 1 {
			i := base + bits.TrailingZeros64(inW)
			va, vb := af[i], bf[i]
			if !math.IsNaN(va) && !math.IsNaN(vb) {
				inA = append(inA, va)
				inB = append(inB, vb)
			}
		}
		for ; outW != 0; outW &= outW - 1 {
			i := base + bits.TrailingZeros64(outW)
			va, vb := af[i], bf[i]
			if !math.IsNaN(va) && !math.IsNaN(vb) {
				outA = append(outA, va)
				outB = append(outB, vb)
			}
		}
	})
	s.inA, s.inB, s.outA, s.outB = inA, inB, outA, outB
	return inA, inB, outA, outB
}

// mixedSplit extracts the row-aligned categorical codes and numeric values
// feeding the DiffSeparation component. The returned slices alias the
// scratch and are valid until the next call.
func (s *scoreScratch) mixedSplit(cc, nc *frame.Column, sel, consider *frame.Bitmap) (catIn []int32, numIn []float64, catOut []int32, numOut []float64) {
	catIn, catOut = s.catIn[:0], s.catOut[:0]
	numIn, numOut = s.inA[:0], s.outA[:0]
	codes, floats := cc.Codes(), nc.Floats()
	splitWords(len(codes), sel, consider, func(base int, inW, outW uint64) {
		for ; inW != 0; inW &= inW - 1 {
			i := base + bits.TrailingZeros64(inW)
			if codes[i] >= 0 && !math.IsNaN(floats[i]) {
				catIn = append(catIn, codes[i])
				numIn = append(numIn, floats[i])
			}
		}
		for ; outW != 0; outW &= outW - 1 {
			i := base + bits.TrailingZeros64(outW)
			if codes[i] >= 0 && !math.IsNaN(floats[i]) {
				catOut = append(catOut, codes[i])
				numOut = append(numOut, floats[i])
			}
		}
	})
	s.catIn, s.catOut = catIn, catOut
	s.inA, s.outA = numIn, numOut
	return catIn, numIn, catOut, numOut
}
