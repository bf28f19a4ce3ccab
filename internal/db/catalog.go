package db

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/frame"
)

// Catalog is the database: a set of named tables. It is safe for
// concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*frame.Frame
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*frame.Frame)}
}

// Register adds (or replaces) a table under the frame's own name.
func (c *Catalog) Register(f *frame.Frame) error {
	if f == nil {
		return fmt.Errorf("db: cannot register nil frame")
	}
	if f.Name() == "" {
		return fmt.Errorf("db: cannot register unnamed frame")
	}
	c.mu.Lock()
	c.tables[f.Name()] = f
	c.mu.Unlock()
	return nil
}

// Unregister removes the named table, reporting whether it was registered.
func (c *Catalog) Unregister(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return false
	}
	delete(c.tables, name)
	return true
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*frame.Frame, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.tables[name]
	return f, ok
}

// TableNames lists registered tables in sorted order.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Result is an executed SELECT: the statement resolved against its table
// and the WHERE selection over that table. It holds no result rows; Rows
// gathers them on request.
type Result struct {
	// Stmt is the parsed statement.
	Stmt *SelectStmt
	// Base is the queried table.
	Base *frame.Frame
	// Mask is the WHERE selection over the base table, before ORDER BY and
	// LIMIT. This is the Cᴵ/Cᴼ split Ziggy consumes.
	Mask *frame.Bitmap

	// projected is the projection's view of the base table (the table
	// itself for SELECT *); nil on the aggregation path, which agg plans.
	projected *frame.Frame
	agg       *aggPlan
	// order holds each ORDER BY key's column position in the base table on
	// the projection path, and in the aggregation output otherwise.
	order []int
}

// Query parses and executes sql against the catalog.
func (c *Catalog) Query(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return c.Execute(stmt)
}

// Execute resolves every name a parsed statement uses — the table, WHERE,
// the projection or the aggregation, and ORDER BY — and evaluates WHERE.
// It copies no cell: every statement it accepts gathers its rows through
// Result.Rows without error.
func (c *Catalog) Execute(stmt *SelectStmt) (*Result, error) {
	base, ok := c.Table(stmt.Table)
	if !ok {
		return nil, evalErrorf("unknown table %q", stmt.Table)
	}
	res := &Result{Stmt: stmt, Base: base}
	var err error
	if res.Mask, err = EvalPredicate(base, stmt.Where); err != nil {
		return nil, err
	}
	if len(stmt.Aggs) > 0 {
		if res.agg, err = planAggregation(stmt, base); err != nil {
			return nil, err
		}
		res.order, err = resolveOrder(stmt.OrderBy, res.agg.out)
	} else {
		res.projected = base
		if len(stmt.Columns) > 0 {
			if res.projected, err = base.Select(stmt.Columns...); err != nil {
				return nil, evalErrorf("%v", err)
			}
		}
		res.order, err = resolveOrder(stmt.OrderBy, base)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Rows gathers the result rows: the projection of the selected rows, or
// the aggregation's groups, in ORDER BY order and cut at LIMIT.
func (r *Result) Rows() (*frame.Frame, error) {
	if r.agg == nil {
		return r.gather(r.Base, r.projected, r.Mask.Indices()), nil
	}
	out, err := r.agg.run(r.Stmt, r.Mask)
	if err != nil {
		return nil, err
	}
	idx := make([]int, out.NumRows())
	for i := range idx {
		idx[i] = i
	}
	return r.gather(out, out, idx), nil
}

// gather stably sorts the row indices idx by the ORDER BY over src's
// columns, cuts them at the LIMIT, and takes those rows of f.
func (r *Result) gather(src, f *frame.Frame, idx []int) *frame.Frame {
	if len(r.order) > 0 {
		sort.SliceStable(idx, func(a, b int) bool {
			for i, col := range r.order {
				cmp := compareRows(src.Col(col), idx[a], idx[b])
				if cmp == 0 {
					continue
				}
				if r.Stmt.OrderBy[i].Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
	}
	if lim := r.Stmt.Limit; lim >= 0 && lim < len(idx) {
		idx = idx[:lim]
	}
	return f.Take(idx)
}

// resolveOrder returns the position in f of each ORDER BY key's column.
func resolveOrder(keys []OrderKey, f *frame.Frame) ([]int, error) {
	order := make([]int, len(keys))
	for i, k := range keys {
		if order[i] = f.ColIndex(k.Column); order[i] < 0 {
			return nil, evalErrorf("unknown column %q in ORDER BY", k.Column)
		}
	}
	return order, nil
}

// compareRows orders two rows of one column: NULLs sort last, numbers by
// value, strings lexicographically.
func compareRows(c *frame.Column, a, b int) int {
	na, nb := c.IsNull(a), c.IsNull(b)
	switch {
	case na && nb:
		return 0
	case na:
		return 1
	case nb:
		return -1
	}
	if c.Kind() == frame.Numeric {
		va, vb := c.Float(a), c.Float(b)
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		default:
			return 0
		}
	}
	sa, sb := c.Str(a), c.Str(b)
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	default:
		return 0
	}
}
