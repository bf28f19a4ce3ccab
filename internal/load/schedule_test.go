package load

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
)

// quickSpec is small enough to expand instantly but exercises mixed
// tables, all three phase kinds and the option mixes.
const quickSpec = `zigload v1
name quick
sessions 3
table boxoffice seed=1
table micro name=m1 seed=5 rows=200 cols=8
phase warm kind=repeat requests=4 think=exp:100us pool=3 exclude=0.5
phase sweep kind=churn requests=3 think=none skipcache=0.5
phase rush kind=burst requests=5 think=fixed:1ms modes=default:2,robust:1
`

func mustSchedule(t *testing.T, specText string, seed uint64) *Schedule {
	t.Helper()
	spec, err := Parse(specText)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BuildSchedule(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestScheduleShape(t *testing.T) {
	sched := mustSchedule(t, quickSpec, 1)
	if got := sched.TotalRequests(); got != 3*(4+3+5) {
		t.Fatalf("TotalRequests = %d", got)
	}
	if len(sched.Tables) != 2 || sched.Tables[1].Frame.Name() != "m1" {
		t.Fatalf("tables: %d, second name %q", len(sched.Tables), sched.Tables[1].Frame.Name())
	}
	seenTable := map[string]bool{}
	seenSkip, seenRobust := false, false
	for si, reqs := range sched.Sessions {
		if len(reqs) != 4+3+5 {
			t.Fatalf("session %d has %d requests", si, len(reqs))
		}
		for _, r := range reqs {
			seenTable[r.Table] = true
			seenSkip = seenSkip || r.SkipCache
			seenRobust = seenRobust || r.Mode.Robust
			if !strings.HasPrefix(r.SQL, "SELECT * FROM "+r.Table+" WHERE ") {
				t.Fatalf("malformed SQL %q for table %q", r.SQL, r.Table)
			}
			if len(r.PredCols) != 1 || r.PredCols[0] == "" {
				t.Fatalf("missing predicate column for %q", r.SQL)
			}
			if !strings.Contains(r.SQL, " "+r.PredCols[0]+" >= ") {
				t.Fatalf("PredCols %v does not match SQL %q", r.PredCols, r.SQL)
			}
			if r.Phase == "rush" && r.Think != 0 {
				t.Fatalf("burst request has think %v", r.Think)
			}
		}
	}
	if !seenTable["boxoffice"] || !seenTable["m1"] {
		t.Errorf("tables drawn: %v, want both", seenTable)
	}
	if !seenSkip {
		t.Error("no request drew SkipCache despite skipcache=0.5")
	}
	if !seenRobust {
		t.Error("no request drew robust mode despite modes=default:2,robust:1")
	}
}

// TestScheduleDeterminism pins the generation rail: the same (spec, seed)
// renders identically; a different seed renders differently.
func TestScheduleDeterminism(t *testing.T) {
	a := mustSchedule(t, quickSpec, 42)
	b := mustSchedule(t, quickSpec, 42)
	if a.Render() != b.Render() {
		t.Error("same (spec, seed) produced different schedules")
	}
	if a.Hash() != b.Hash() {
		t.Error("same (spec, seed) produced different hashes")
	}
	c := mustSchedule(t, quickSpec, 43)
	if a.Hash() == c.Hash() {
		t.Error("different seeds produced identical schedules")
	}
}

// TestSchedulePoolSharing asserts repeat pools are shared across sessions:
// the distinct-query count of a repeat phase is bounded by pool × tables,
// no matter how many sessions draw from it — the property that makes
// repeat phases cache-friendly across the population.
func TestSchedulePoolSharing(t *testing.T) {
	spec, err := Parse(`zigload v1
name pools
sessions 8
table micro name=m1 seed=3 rows=200 cols=6
table micro name=m2 seed=4 rows=200 cols=6
phase p kind=repeat requests=10 think=none pool=2
`)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BuildSchedule(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, reqs := range sched.Sessions {
		for _, r := range reqs {
			distinct[r.SQL] = true
		}
	}
	if len(distinct) > 2*2 {
		t.Errorf("repeat phase drew %d distinct queries, want ≤ pool×tables = 4", len(distinct))
	}
	if len(distinct) < 2 {
		t.Errorf("repeat phase drew only %d distinct queries", len(distinct))
	}
}

// TestScheduleChurnIsFresh asserts churn draws are (nearly) all distinct —
// the cache-hostile property.
func TestScheduleChurnIsFresh(t *testing.T) {
	spec, err := Parse(`zigload v1
name churn
sessions 4
table boxoffice seed=1
phase p kind=churn requests=25 think=none
`)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BuildSchedule(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	total := 0
	for _, reqs := range sched.Sessions {
		for _, r := range reqs {
			distinct[r.SQL] = true
			total++
		}
	}
	// Thresholds are drawn from a continuous quantile range; collisions
	// should be rare.
	if len(distinct) < total*9/10 {
		t.Errorf("churn drew %d distinct of %d queries, want ≥ 90%%", len(distinct), total)
	}
}

// TestScheduleQueriesSplitBothSides pins that every generated query leaves
// the engine's minimum rows on both sides of its split, counted by running
// the SQL. Boxoffice's year column has heavy ties at its minimum, which used
// to yield queries like "year >= 2007" that select all 900 rows.
func TestScheduleQueriesSplitBothSides(t *testing.T) {
	sched := mustSchedule(t, `zigload v1
name churn
sessions 1
table boxoffice seed=1
table uscrime seed=1
phase sweep kind=churn requests=8000 think=none
`, 1)
	cat := db.NewCatalog()
	for _, tbl := range sched.Tables {
		if err := cat.Register(tbl.Frame); err != nil {
			t.Fatal(err)
		}
	}
	minRows := core.DefaultConfig().MinRows
	bad := 0
	for _, req := range sched.Sessions[0] {
		res, err := cat.Query(req.SQL)
		if err != nil {
			t.Fatal(err)
		}
		in := res.Mask.Count()
		if out := res.Base.NumRows() - in; in < minRows || out < minRows {
			if bad++; bad <= 3 {
				t.Errorf("%q selects %d rows and leaves %d; the engine needs %d on each side", req.SQL, in, out, minRows)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d queries leave fewer than %d rows on a side", bad, len(sched.Sessions[0]), minRows)
	}
}
