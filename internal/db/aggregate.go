package db

import (
	"encoding/binary"
	"math"

	"repro/internal/frame"
)

// aggPlan is an aggregation resolved against its table: the grouping
// columns, each aggregate's input column (nil for COUNT(*)), and the
// output's schema.
type aggPlan struct {
	groupCols []*frame.Column
	aggCols   []*frame.Column
	// out is a frame with the output's columns, grouping columns first,
	// and no rows.
	out *frame.Frame
}

// planAggregation resolves the aggregation path of stmt against base and
// applies each aggregate's kind rule.
func planAggregation(stmt *SelectStmt, base *frame.Frame) (*aggPlan, error) {
	p := &aggPlan{groupCols: make([]*frame.Column, len(stmt.GroupBy)), aggCols: make([]*frame.Column, len(stmt.Aggs))}
	b := frame.NewBuilder(base.Name())
	for i, name := range stmt.GroupBy {
		c, ok := base.Lookup(name)
		if !ok {
			return nil, evalErrorf("unknown column %q in GROUP BY", name)
		}
		p.groupCols[i] = c
		addColumn(b, c.Kind(), name)
	}
	for i, a := range stmt.Aggs {
		kind := frame.Numeric
		if a.Column == "" {
			if a.Func != "COUNT" {
				return nil, evalErrorf("%s requires a column", a.Func)
			}
		} else {
			c, ok := base.Lookup(a.Column)
			if !ok {
				return nil, evalErrorf("unknown column %q in %s()", a.Column, a.Func)
			}
			// Over a categorical column only COUNT, MIN and MAX apply, and
			// MIN and MAX yield strings.
			if c.Kind() == frame.Categorical {
				if a.Func != "COUNT" && a.Func != "MIN" && a.Func != "MAX" {
					return nil, evalErrorf("%s() needs a numeric column, %q is %s", a.Func, a.Column, c.Kind())
				}
				if a.Func != "COUNT" {
					kind = frame.Categorical
				}
			}
			p.aggCols[i] = c
		}
		addColumn(b, kind, a.OutputName())
	}
	var err error
	if p.out, err = b.Build(); err != nil {
		return nil, evalErrorf("%v", err)
	}
	return p, nil
}

func addColumn(b *frame.Builder, kind frame.Kind, name string) {
	if kind == frame.Numeric {
		b.AddNumeric(name)
	} else {
		b.AddCategorical(name)
	}
}

// run groups the selected rows by the grouping columns (one global group
// when there are none) and evaluates each aggregate: one output row per
// group, in first-seen order.
func (p *aggPlan) run(stmt *SelectStmt, mask *frame.Bitmap) (*frame.Frame, error) {
	type groupState struct {
		firstRow int
		accs     []aggAccumulator
	}
	var groups []groupState
	index := make(map[string]int) // group key -> position in groups
	key := make([]byte, 8*len(p.groupCols))

	mask.ForEach(func(row int) {
		for i, c := range p.groupCols {
			binary.LittleEndian.PutUint64(key[8*i:], groupWord(c, row))
		}
		g, ok := index[string(key)]
		if !ok {
			g = len(groups)
			index[string(key)] = g
			accs := make([]aggAccumulator, len(stmt.Aggs))
			for i, a := range stmt.Aggs {
				accs[i] = newAggAccumulator(a.Func)
			}
			groups = append(groups, groupState{firstRow: row, accs: accs})
		}
		for i, c := range p.aggCols {
			groups[g].accs[i].add(c, row)
		}
	})

	// Builder columns are numbered in declaration order, so group column i
	// is column i and aggregate i is column len(groupCols)+i.
	b := frame.NewBuilder(p.out.Name())
	for _, c := range p.out.Columns() {
		addColumn(b, c.Kind(), c.Name())
	}
	for _, g := range groups {
		for i, c := range p.groupCols {
			switch {
			case c.IsNull(g.firstRow):
				b.AppendNull(i)
			case c.Kind() == frame.Numeric:
				b.AppendFloat(i, c.Float(g.firstRow))
			default:
				b.AppendStr(i, c.Str(g.firstRow))
			}
		}
		for i, acc := range g.accs {
			col := len(p.groupCols) + i
			num, str, isNull := acc.result()
			switch {
			case isNull:
				b.AppendNull(col)
			case p.out.Col(col).Kind() == frame.Numeric:
				b.AppendFloat(col, num)
			default:
				b.AppendStr(col, str)
			}
		}
	}
	return b.Build()
}

// groupWord is column c's 8-byte word of row's group key, so two rows
// share a group exactly when their grouping values are equal under WHERE's
// =, with NULL equal to NULL: a categorical column's dictionary code (NULL
// is -1), or a numeric column's float bits with -0 as +0 and every NULL
// as one NaN.
func groupWord(c *frame.Column, row int) uint64 {
	if c.Kind() == frame.Categorical {
		return uint64(c.Code(row))
	}
	switch v := c.Float(row); {
	case v == 0:
		return 0
	case v != v:
		return math.Float64bits(math.NaN())
	default:
		return math.Float64bits(v)
	}
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

func newAggAccumulator(fn string) aggAccumulator {
	return aggAccumulator{fn: fn, min: math.Inf(1), max: math.Inf(-1)}
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
