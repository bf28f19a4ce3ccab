package db

import (
	"runtime"
	"testing"

	"repro/internal/synth"
)

// TestQueryCopiesNoRows bounds what Query allocates on the characterize
// path: parsing, resolution and the WHERE mask, but no result rows. A copy
// of the 145 selected rows × 128 columns of uscrime(1) alone takes about
// 150 KB.
func TestQueryCopiesNoRows(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Register(synth.USCrime(1)); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT * FROM uscrime WHERE crime_violent_rate >= 1300"
	query := func() {
		if _, err := cat.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	query()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Query allocates %d B per call", perCall)
	if perCall >= 32<<10 {
		t.Errorf("Query allocates %d B per call, want under 32 KiB: it copies rows", perCall)
	}
}
