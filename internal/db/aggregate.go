package db

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/frame"
)

// executeAggregation runs the aggregation path: group the selected rows by
// the GROUP BY columns (one global group when absent), evaluate each
// aggregate, then apply ORDER BY and LIMIT over the aggregated output.
func executeAggregation(stmt *SelectStmt, base *frame.Frame, mask *frame.Bitmap) (*frame.Frame, error) {
	// Resolve grouping columns.
	groupCols := make([]*frame.Column, len(stmt.GroupBy))
	for i, name := range stmt.GroupBy {
		c, ok := base.Lookup(name)
		if !ok {
			return nil, evalErrorf("unknown column %q in GROUP BY", name)
		}
		groupCols[i] = c
	}
	// Resolve aggregate input columns.
	aggCols := make([]*frame.Column, len(stmt.Aggs))
	for i, a := range stmt.Aggs {
		if a.Column == "" {
			if a.Func != "COUNT" {
				return nil, evalErrorf("%s requires a column", a.Func)
			}
			continue
		}
		c, ok := base.Lookup(a.Column)
		if !ok {
			return nil, evalErrorf("unknown column %q in %s()", a.Column, a.Func)
		}
		if c.Kind() != frame.Numeric && a.Func != "COUNT" && a.Func != "MIN" && a.Func != "MAX" {
			return nil, evalErrorf("%s() needs a numeric column, %q is %s", a.Func, a.Column, c.Kind())
		}
		aggCols[i] = c
	}

	type groupState struct {
		firstRow int
		accs     []*aggAccumulator
	}
	groups := make(map[string]*groupState)
	var order []string // group keys in first-seen order

	mask.ForEach(func(row int) {
		key := groupKey(groupCols, row)
		g, ok := groups[key]
		if !ok {
			g = &groupState{firstRow: row, accs: make([]*aggAccumulator, len(stmt.Aggs))}
			for i, a := range stmt.Aggs {
				g.accs[i] = newAggAccumulator(a.Func)
			}
			groups[key] = g
			order = append(order, key)
		}
		for i := range stmt.Aggs {
			g.accs[i].add(aggCols[i], row)
		}
	})

	// Assemble the output frame: grouping columns first, aggregates after.
	b := frame.NewBuilder(base.Name())
	groupIdx := make([]int, len(groupCols))
	for i, c := range groupCols {
		if c.Kind() == frame.Numeric {
			groupIdx[i] = b.AddNumeric(c.Name())
		} else {
			groupIdx[i] = b.AddCategorical(c.Name())
		}
	}
	aggIdx := make([]int, len(stmt.Aggs))
	aggIsNumeric := make([]bool, len(stmt.Aggs))
	for i, a := range stmt.Aggs {
		// MIN/MAX over categorical columns yield strings; everything else
		// is numeric.
		if (a.Func == "MIN" || a.Func == "MAX") && aggCols[i] != nil && aggCols[i].Kind() == frame.Categorical {
			aggIdx[i] = b.AddCategorical(a.OutputName())
		} else {
			aggIdx[i] = b.AddNumeric(a.OutputName())
			aggIsNumeric[i] = true
		}
	}
	for _, key := range order {
		g := groups[key]
		for i, c := range groupCols {
			switch {
			case c.IsNull(g.firstRow):
				b.AppendNull(groupIdx[i])
			case c.Kind() == frame.Numeric:
				b.AppendFloat(groupIdx[i], c.Float(g.firstRow))
			default:
				b.AppendStr(groupIdx[i], c.Str(g.firstRow))
			}
		}
		for i := range stmt.Aggs {
			num, str, isNull := g.accs[i].result()
			switch {
			case isNull:
				b.AppendNull(aggIdx[i])
			case aggIsNumeric[i]:
				b.AppendFloat(aggIdx[i], num)
			default:
				b.AppendStr(aggIdx[i], str)
			}
		}
	}
	out, err := b.Build()
	if err != nil {
		return nil, err
	}

	// ORDER BY over the aggregated output (keys may name group columns or
	// aggregate output names).
	if len(stmt.OrderBy) > 0 {
		out, err = sortFrame(out, stmt.OrderBy)
		if err != nil {
			return nil, err
		}
	}
	if stmt.Limit >= 0 && stmt.Limit < out.NumRows() {
		idx := make([]int, stmt.Limit)
		for i := range idx {
			idx[i] = i
		}
		out, err = materializeInOrder(out, idx)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// groupKey builds a hashable key from the grouping values of one row.
func groupKey(cols []*frame.Column, row int) string {
	if len(cols) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, c := range cols {
		if c.IsNull(row) {
			sb.WriteString("\x00N")
		} else if c.Kind() == frame.Numeric {
			fmt.Fprintf(&sb, "\x00%g", c.Float(row))
		} else {
			sb.WriteString("\x00")
			sb.WriteString(c.Str(row))
		}
	}
	return sb.String()
}

// aggAccumulator folds rows for one aggregate.
type aggAccumulator struct {
	fn    string
	count int
	sum   float64
	min   float64
	max   float64
	minS  string
	maxS  string
	isStr bool
	seen  bool
}

func newAggAccumulator(fn string) *aggAccumulator {
	return &aggAccumulator{fn: fn, min: math.Inf(1), max: math.Inf(-1)}
}

// add folds one row. col is nil only for COUNT(*).
func (a *aggAccumulator) add(col *frame.Column, row int) {
	if col == nil {
		a.count++
		return
	}
	if col.IsNull(row) {
		return // SQL semantics: aggregates skip NULLs
	}
	a.count++
	if col.Kind() == frame.Numeric {
		v := col.Float(row)
		a.sum += v
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	} else {
		a.isStr = true
		s := col.Str(row)
		if !a.seen || s < a.minS {
			a.minS = s
		}
		if !a.seen || s > a.maxS {
			a.maxS = s
		}
	}
	a.seen = true
}

// result returns the aggregate value: a float, a string (categorical
// MIN/MAX), or NULL for empty inputs.
func (a *aggAccumulator) result() (num float64, str string, isNull bool) {
	switch a.fn {
	case "COUNT":
		return float64(a.count), "", false
	case "SUM":
		if a.count == 0 {
			return 0, "", true
		}
		return a.sum, "", false
	case "AVG":
		if a.count == 0 {
			return 0, "", true
		}
		return a.sum / float64(a.count), "", false
	case "MIN":
		if a.count == 0 {
			return 0, "", true
		}
		if a.isStr {
			return 0, a.minS, false
		}
		return a.min, "", false
	case "MAX":
		if a.count == 0 {
			return 0, "", true
		}
		if a.isStr {
			return 0, a.maxS, false
		}
		return a.max, "", false
	default:
		return 0, "", true
	}
}

// sortFrame returns f's rows reordered by the given keys (all of which must
// be columns of f).
func sortFrame(f *frame.Frame, keys []OrderKey) (*frame.Frame, error) {
	idx := make([]int, f.NumRows())
	for i := range idx {
		idx[i] = i
	}
	if err := orderRows(f, idx, keys); err != nil {
		return nil, err
	}
	return materializeInOrder(f, idx)
}
