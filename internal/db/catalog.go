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

// Result is the outcome of executing a SELECT.
type Result struct {
	// Stmt is the parsed statement.
	Stmt *SelectStmt
	// Base is the queried table.
	Base *frame.Frame
	// Mask is the WHERE selection over the base table, before ORDER BY and
	// LIMIT. This is the Cᴵ/Cᴼ split Ziggy consumes.
	Mask *frame.Bitmap
	// Rows is the materialized result: projected, ordered and limited.
	Rows *frame.Frame
}

// Query parses and executes sql against the catalog.
func (c *Catalog) Query(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return c.Execute(stmt)
}

// Execute runs a parsed statement.
func (c *Catalog) Execute(stmt *SelectStmt) (*Result, error) {
	base, ok := c.Table(stmt.Table)
	if !ok {
		return nil, evalErrorf("unknown table %q", stmt.Table)
	}

	// WHERE.
	var mask *frame.Bitmap
	if stmt.Where == nil {
		mask = frame.NewBitmap(base.NumRows())
		mask.SetAll()
	} else {
		m, err := EvalPredicate(base, stmt.Where)
		if err != nil {
			return nil, err
		}
		mask = m
	}
	return c.finish(stmt, base, mask)
}

func (c *Catalog) finish(stmt *SelectStmt, base *frame.Frame, mask *frame.Bitmap) (*Result, error) {
	// Aggregation queries follow their own materialization path; the
	// selection mask over the base table is preserved either way.
	if len(stmt.Aggs) > 0 {
		rows, err := executeAggregation(stmt, base, mask)
		if err != nil {
			return nil, err
		}
		return &Result{Stmt: stmt, Base: base, Mask: mask, Rows: rows}, nil
	}

	// Validate projection before doing any work.
	projected := base
	if len(stmt.Columns) > 0 {
		var err error
		projected, err = base.Select(stmt.Columns...)
		if err != nil {
			return nil, evalErrorf("%v", err)
		}
	}

	idx := mask.Indices()

	// ORDER BY over the selected row indices.
	if err := orderRows(base, idx, stmt.OrderBy); err != nil {
		return nil, err
	}

	// LIMIT.
	if stmt.Limit >= 0 && stmt.Limit < len(idx) {
		idx = idx[:stmt.Limit]
	}

	rows, err := projected.Filter(frame.BitmapFromIndices(base.NumRows(), idx))
	if err != nil {
		return nil, err
	}
	// Filter loses ORDER BY ordering (bitmap iteration is ascending), so
	// re-materialize in sorted order when ORDER BY is present.
	if len(stmt.OrderBy) > 0 {
		rows, err = materializeInOrder(projected, idx)
		if err != nil {
			return nil, err
		}
	}
	return &Result{Stmt: stmt, Base: base, Mask: mask, Rows: rows}, nil
}

// orderRows stably sorts the row indices idx of f by keys, each naming a
// column of f (the ORDER BY of a query or of an aggregate's output).
func orderRows(f *frame.Frame, idx []int, keys []OrderKey) error {
	if len(keys) == 0 {
		return nil
	}
	cols := make([]*frame.Column, len(keys))
	for i, k := range keys {
		c, ok := f.Lookup(k.Column)
		if !ok {
			return evalErrorf("unknown column %q in ORDER BY", k.Column)
		}
		cols[i] = c
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for i, c := range cols {
			cmp := compareRows(c, idx[a], idx[b])
			if cmp == 0 {
				continue
			}
			if keys[i].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return nil
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

// materializeInOrder builds a frame from specific row indices in the given
// order.
func materializeInOrder(f *frame.Frame, idx []int) (*frame.Frame, error) {
	b := frame.NewBuilder(f.Name())
	colIdx := make([]int, f.NumCols())
	for i := 0; i < f.NumCols(); i++ {
		c := f.Col(i)
		if c.Kind() == frame.Numeric {
			colIdx[i] = b.AddNumeric(c.Name())
		} else {
			colIdx[i] = b.AddCategorical(c.Name())
		}
	}
	for _, ri := range idx {
		for i := 0; i < f.NumCols(); i++ {
			c := f.Col(i)
			switch {
			case c.IsNull(ri):
				b.AppendNull(colIdx[i])
			case c.Kind() == frame.Numeric:
				b.AppendFloat(colIdx[i], c.Float(ri))
			default:
				b.AppendStr(colIdx[i], c.Str(ri))
			}
		}
	}
	return b.Build()
}
