package retrieve

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func wl(log2GB float64) Workload {
	return Workload{
		Log2GB: log2GB, Queries: 22, JoinFrac: 0.5, AggFrac: 0.3,
		ShuffleFrac: 0.4, InputFrac: 0.5, Stages: 3, CPUWeight: 1,
		TotalCores: 384, QCSA: 1, IICP: 1, DAGP: 1,
	}
}

func TestVectorDistances(t *testing.T) {
	base := wl(6.6)
	if d := Distance(base.Vector(), base.Vector()); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	// One power of two away: a near neighbor, inside the default radius.
	near := Distance(base.Vector(), wl(7.6).Vector())
	if near <= 0 || near > 0.3 {
		t.Fatalf("adjacent-size distance = %v, want (0, 0.3]", near)
	}
	// A different cluster architecture is far outside any sane radius.
	other := base
	other.ClusterCode = 1
	if d := Distance(base.Vector(), other.Vector()); d < 1.5 {
		t.Fatalf("cross-cluster distance = %v, want >= 1.5", d)
	}
	// A disabled technique bit pushes past the default radius too.
	noQCSA := base
	noQCSA.QCSA = 0
	if d := Distance(base.Vector(), noQCSA.Vector()); d < 0.9 {
		t.Fatalf("technique-mismatch distance = %v, want >= 0.9", d)
	}
	// Mismatched dimensionality is incomparable.
	if d := Distance(base.Vector(), []float64{1, 2}); !math.IsInf(d, 1) {
		t.Fatalf("mismatched dims distance = %v, want +Inf", d)
	}
}

func TestNearestDeterministicOrder(t *testing.T) {
	ix := NewIndex()
	// Two items at the identical distance: the tie must break on ID no
	// matter the insertion order.
	ix.Upsert(Item{ID: "b", Key: "k", Vec: []float64{1, 0}})
	ix.Upsert(Item{ID: "a", Key: "k", Vec: []float64{0, 1}})
	ix.Upsert(Item{ID: "c", Key: "k", Vec: []float64{3, 0}})
	got := ix.Nearest([]float64{0, 0}, 2, 0)
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Fatalf("Nearest = %+v, want a then b", got)
	}
	// The radius cut excludes the far item even with room in k.
	got = ix.Nearest([]float64{0, 0}, 10, 2)
	if len(got) != 2 {
		t.Fatalf("radius cut kept %d items, want 2", len(got))
	}
	if got := ix.Nearest([]float64{0, 0}, 0, 0); got != nil {
		t.Fatalf("k=0 returned %+v", got)
	}
}

// nearestFullSort is Nearest as a full sort: a match for every item within
// the radius, all of them sorted by distance then ID, the first k kept. It is
// the oracle of the bounded selection.
func nearestFullSort(ix *Index, vec []float64, k int, maxDist float64) []Match {
	if k <= 0 {
		return nil
	}
	matches := make([]Match, 0, len(ix.items))
	for _, it := range ix.items {
		d := Distance(vec, it.Vec)
		if math.IsInf(d, 1) || (maxDist > 0 && d > maxDist) {
			continue
		}
		matches = append(matches, Match{Item: it, Dist: d})
	}
	sort.Slice(matches, func(a, b int) bool {
		if matches[a].Dist != matches[b].Dist {
			return matches[a].Dist < matches[b].Dist
		}
		return matches[a].ID < matches[b].ID
	})
	if len(matches) > k {
		matches = matches[:k]
	}
	return matches
}

// TestNearestMatchesFullSort: on random indexes whose vectors sit on a small
// grid, so that many items are equally far from the query, the bounded
// selection returns what the full sort returns for k = 1, 5, len, len+3 and
// an unbounded k, with and without a radius (one grid distances reach
// exactly), in one allocation of min(k, len) matches.
func TestNearestMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	grid := func(dim int) []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = float64(rng.Intn(4))
		}
		return v
	}
	for _, n := range []int{0, 1, 2, 7, 40, 200} {
		ix := NewIndex()
		for _, id := range rng.Perm(n) {
			dim := 2
			if id%9 == 4 {
				dim = 3 // another schema's vector: never a match
			}
			ix.Upsert(Item{ID: fmt.Sprintf("k/%03d", id), Key: "k", Vec: grid(dim)})
		}
		for trial := 0; trial < 5; trial++ {
			vec := grid(2)
			for _, k := range []int{1, 5, n, n + 3, math.MaxInt} {
				for _, maxDist := range []float64{0, 2} {
					got, want := ix.Nearest(vec, k, maxDist), nearestFullSort(ix, vec, k, maxDist)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d k=%d maxDist=%v: Nearest = %v, the full sort %v", n, k, maxDist, got, want)
					}
					if k <= 0 {
						continue
					}
					slots := min(k, n)
					if cap(got) != slots {
						t.Fatalf("n=%d k=%d: Nearest returned %d slots, want min(k, len) = %d", n, k, cap(got), slots)
					}
					allocs := testing.AllocsPerRun(5, func() { ix.Nearest(vec, k, maxDist) })
					if wantAllocs := float64(min(slots, 1)); allocs != wantAllocs {
						t.Fatalf("n=%d k=%d: Nearest makes %v allocations, want %v", n, k, allocs, wantAllocs)
					}
				}
			}
		}
	}
}

func TestUpsertRemoveCompact(t *testing.T) {
	ix := NewIndex()
	ix.Upsert(Item{ID: "x", Key: "k1", Vec: []float64{1}})
	ix.Upsert(Item{ID: "x", Key: "k1", Vec: []float64{2}}) // replace
	ix.Upsert(Item{ID: "y", Key: "k2", Vec: []float64{3}})
	if ix.Len() != 2 || ix.KeyLen("k1") != 1 || ix.KeyLen("k3") != 0 {
		t.Fatalf("Len = %d, KeyLen = %d, %d; want 2, 1, 0", ix.Len(), ix.KeyLen("k1"), ix.KeyLen("k3"))
	}
	if got := ix.Nearest([]float64{2}, 1, 0); got[0].ID != "x" || got[0].Dist != 0 {
		t.Fatalf("upsert did not replace: %+v", got)
	}
	if n := ix.Compact(func(it Item) bool { return it.Key != "k2" }); n != 1 {
		t.Fatalf("Compact dropped %d, want 1", n)
	}
	ix.Remove("x")
	ix.Remove("x") // no-op
	if ix.Len() != 0 {
		t.Fatalf("Len = %d after removals, want 0", ix.Len())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "knn.index")
	ix := NewIndex()
	ix.Upsert(Item{ID: "a", Key: "k1", Vec: wl(6.6).Vector()})
	ix.Upsert(Item{ID: "b", Key: "k2", Vec: wl(7.6).Vector()})
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	got := Load(path)
	if got.Len() != 2 {
		t.Fatalf("loaded %d items, want 2", got.Len())
	}
	a, b := ix.Items(), got.Items()
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Key != b[i].Key || Distance(a[i].Vec, b[i].Vec) != 0 {
			t.Fatalf("round trip diverged: %+v vs %+v", a[i], b[i])
		}
	}
	// Removal compacts on the next Save: the file holds only live items.
	ix.Remove("a")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	if got := Load(path); got.Len() != 1 || !got.Has("b") {
		t.Fatalf("compacted index = %+v", got.Items())
	}
}

func TestLoadToleratesMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	if ix := Load(filepath.Join(dir, "absent")); ix.Len() != 0 {
		t.Fatal("missing file must load empty")
	}
	bad := filepath.Join(dir, "corrupt")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ix := Load(bad); ix.Len() != 0 {
		t.Fatal("corrupt file must load empty")
	}
	// A schema bump invalidates older files wholesale: the single JSON
	// document schema 1 wrote, schema 2's log with its tombstones, and a file
	// whose header names another schema.
	for name, content := range map[string]string{
		"schema1":     "{\n \"schema\": 1,\n \"items\": [\n  {\n   \"id\": \"a\",\n   \"key\": \"k\",\n   \"vec\": [\n    1\n   ]\n  }\n ]\n}",
		"schema2":     "{\"schema\":2}\n{\"id\":\"a\",\"key\":\"k\",\"vec\":[1]}\n{\"id\":\"b\",\"key\":\"k\",\"vec\":[2]}\n{\"id\":\"a\",\"del\":true}\n",
		"otherschema": "{\"schema\":1}\n{\"id\":\"a\",\"key\":\"k\",\"vec\":[1]}\n",
		"noheader":    "{\"id\":\"a\",\"key\":\"k\",\"vec\":[1]}\n",
	} {
		old := filepath.Join(dir, name)
		if err := os.WriteFile(old, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if ix := Load(old); ix.Len() != 0 {
			t.Fatalf("%s must load empty, loaded %+v", name, ix.Items())
		}
	}
}

// sameItems requires two indexes to hold the same items, vectors bit for bit.
func sameItems(t *testing.T, what string, got, want *Index) {
	t.Helper()
	if !reflect.DeepEqual(got.Items(), want.Items()) {
		t.Fatalf("%s: loaded %+v, want %+v", what, got.Items(), want.Items())
	}
}

// A Save that cannot replace the index file returns the error and leaves no
// temporary file; the next Save over a clear path works.
func TestSaveFailureRemovesTmp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "knn.index")
	ix := NewIndex()
	ix.Upsert(Item{ID: "a", Key: "k1", Vec: []float64{1}})
	for _, blocked := range []string{path, path + ".tmp"} {
		if err := os.MkdirAll(filepath.Join(blocked, "full"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := ix.Save(path); err == nil {
			t.Fatalf("Save succeeded with a directory at %s", blocked)
		}
		if err := os.RemoveAll(blocked); err != nil {
			t.Fatal(err)
		}
		if des, _ := os.ReadDir(dir); len(des) != 0 {
			t.Fatalf("a failed Save left %v", des)
		}
	}
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	sameItems(t, "after the failures", Load(path), ix)
}

func TestWeightsBlendConfidence(t *testing.T) {
	ws := Weights([]float64{0, 0.5})
	if math.Abs(ws[0]+ws[1]-1) > 1e-12 || ws[0] <= ws[1] {
		t.Fatalf("Weights = %v, want normalized and nearest-heavy", ws)
	}
	blend := Blend([][]float64{{0, 1}, {1, 0}}, []float64{0.75, 0.25})
	if math.Abs(blend[0]-0.25) > 1e-12 || math.Abs(blend[1]-0.75) > 1e-12 {
		t.Fatalf("Blend = %v", blend)
	}
	if Blend(nil, nil) != nil {
		t.Fatal("empty blend must be nil")
	}
	// One perfect neighbor is thin evidence; three saturate.
	if c := Confidence([]float64{0}, 5, 0.75); math.Abs(c-1.0/3) > 1e-12 {
		t.Fatalf("single-neighbor confidence = %v, want 1/3", c)
	}
	if c := Confidence([]float64{0, 0, 0}, 5, 0.75); c != 1 {
		t.Fatalf("three-neighbor confidence = %v, want 1", c)
	}
	// Out-of-radius distances contribute nothing; degenerate inputs score 0.
	if c := Confidence([]float64{2}, 5, 0.75); c != 0 {
		t.Fatalf("far-neighbor confidence = %v, want 0", c)
	}
	if Confidence(nil, 0, 0.75) != 0 || Confidence(nil, 5, 0) != 0 {
		t.Fatal("degenerate confidence must be 0")
	}
}
