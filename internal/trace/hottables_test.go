package trace

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// sameFloats reports bit-for-bit equality (NaN payloads and signed zeros
// included).
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSharedHotTablesMatchFresh: the memoised table of every built-in
// profile equals a freshly built one bit for bit, so sharing cannot move
// a single region choice.
func TestSharedHotTablesMatchFresh(t *testing.T) {
	for _, p := range Profiles() {
		th, cells := builtinHotTables().tables(p.HotRegions, p.HotSkew)
		fresh := buildHotThresholds(p.HotRegions, p.HotSkew)
		if !sameFloats(th, fresh) {
			t.Errorf("%s: shared thresholds differ from a fresh build", p.Name)
		}
		if !slices.Equal(cells, buildHotCells(fresh)) {
			t.Errorf("%s: shared cell index differs from a fresh build", p.Name)
		}
	}
}

// TestNewMixtureSharesHotTables: two generators of one built-in profile
// (different seeds, so different hot pools) read the same backing arrays.
func TestNewMixtureSharesHotTables(t *testing.T) {
	p, _ := ProfileByName("GemsFDTD")
	a, err := NewMixture(p, 0, 2<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMixture(p, 2<<30, 2<<30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if &a.hotThresholds[0] != &b.hotThresholds[0] || &a.hotCells[0] != &b.hotCells[0] {
		t.Error("two GemsFDTD generators built separate hot tables")
	}
	if &a.hotBases[0] == &b.hotBases[0] {
		t.Error("the per-seed hot pool must not be shared")
	}
}

// TestCustomHotTablesNotRetained: a profile whose (HotRegions, HotSkew)
// matches no built-in gets its own tables and leaves the memo as it was,
// so submitted profiles cannot grow it.
func TestCustomHotTablesNotRetained(t *testing.T) {
	memo := builtinHotTables()
	want := map[hotKey]bool{}
	for _, p := range Profiles() {
		want[hotKey{p.HotRegions, p.HotSkew}] = true
	}
	if len(memo) != len(want) || len(memo) != 9 {
		t.Fatalf("memo has %d slots, want one per built-in pair (%d)", len(memo), len(want))
	}
	p, _ := ProfileByName("GemsFDTD")
	p.HotRegions = 1234
	a, err := NewMixture(p, 0, 2<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMixture(p, 0, 2<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if &a.hotThresholds[0] == &b.hotThresholds[0] {
		t.Error("a non-built-in profile's tables were shared")
	}
	if !sameFloats(a.hotThresholds, buildHotThresholds(1234, p.HotSkew)) {
		t.Error("non-built-in thresholds differ from a fresh build")
	}
	if _, ok := memo[hotKey{1234, p.HotSkew}]; ok || len(memo) != len(want) {
		t.Errorf("memo grew to %d slots", len(memo))
	}
}

// TestSharedHotTablesConcurrent: sampled forks build Systems from many
// goroutines at once. A fresh memo hammered by 8 goroutines hands every
// caller the same, fully built table (run under -race).
func TestSharedHotTablesConcurrent(t *testing.T) {
	profs := Profiles()
	memo := newHotMemo(profs)
	const workers = 8
	got := make([][]*float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, p := range profs {
				th, cells := memo.tables(p.HotRegions, p.HotSkew)
				if len(th) != p.HotRegions-1 || len(cells) != 4097 || int(cells[4096]) != len(th) {
					t.Errorf("%s: incomplete table (%d thresholds, %d cells)", p.Name, len(th), len(cells))
					return
				}
				got[w] = append(got[w], &th[0])
				// Generators built concurrently share the process memo.
				if _, err := NewMixture(p, 0, 2<<30, uint64(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[0] {
			if i >= len(got[w]) || got[w][i] != got[0][i] {
				t.Fatalf("goroutine %d got a different table for %s", w, profs[i].Name)
			}
		}
	}
}
