package retrieve

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

func TestUpsertRemoveCompact(t *testing.T) {
	ix := NewIndex()
	ix.Upsert(Item{ID: "x", Key: "k1", Vec: []float64{1}})
	ix.Upsert(Item{ID: "x", Key: "k1", Vec: []float64{2}}) // replace
	ix.Upsert(Item{ID: "y", Key: "k2", Vec: []float64{3}})
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
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
	// document schema 1 wrote, and a log whose header names another schema.
	for name, content := range map[string]string{
		"schema1":     "{\n \"schema\": 1,\n \"items\": [\n  {\n   \"id\": \"a\",\n   \"key\": \"k\",\n   \"vec\": [\n    1\n   ]\n  }\n ]\n}",
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

// TestAppendReplay: records appended after a snapshot replay in order, the
// last one for an ID winning, and the next Save compacts them away.
func TestAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "knn.index")
	ix := NewIndex()
	ix.Upsert(Item{ID: "a", Key: "k1", Vec: wl(6.6).Vector()})
	ix.Upsert(Item{ID: "b", Key: "k1", Vec: wl(7.6).Vector()})
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	if ix.KeyLen("k1") != 2 || ix.KeyLen("k2") != 0 {
		t.Fatalf("KeyLen = %d, %d; want 2, 0", ix.KeyLen("k1"), ix.KeyLen("k2"))
	}
	changes := []Record{
		{Item: Item{ID: "c", Key: "k2", Vec: wl(8.6).Vector()}},
		{Item: Item{ID: "a"}, Del: true},
		{Item: Item{ID: "b", Key: "k1", Vec: wl(9.6).Vector()}}, // replaces
		{Item: Item{ID: "c"}, Del: true},
		{Item: Item{ID: "c", Key: "k2", Vec: wl(5.6).Vector()}}, // comes back
		{Item: Item{ID: "gone"}, Del: true},                     // never there
	}
	for _, r := range changes {
		if r.Del {
			ix.Remove(r.ID)
		} else {
			ix.Upsert(r.Item)
		}
	}
	if err := Append(path, changes[:2]...); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, changes[2:]...); err != nil {
		t.Fatal(err)
	}
	sameItems(t, "snapshot + 6 records", Load(path), ix)
	logged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	sameItems(t, "compacted", Load(path), ix)
	if compact, _ := os.ReadFile(path); bytes.Count(compact, []byte("\n")) != 1+ix.Len() || len(compact) >= len(logged) {
		t.Fatalf("Save left %d bytes after a log of %d; want a header and %d lines", len(compact), len(logged), ix.Len())
	}
	// There is nothing to append to before the first Save.
	if err := Append(filepath.Join(t.TempDir(), "absent"), changes[0]); err == nil {
		t.Fatal("Append created an index file without a header")
	}
}

// TestLoadDropsTornTail cuts the file at every byte of its last record — the
// states a crash during Append can leave — and requires exactly the records
// before it. A record torn in the middle of the file ends the replay there.
func TestLoadDropsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "knn.index")
	ix := NewIndex()
	ix.Upsert(Item{ID: "a", Key: "k1", Vec: wl(6.6).Vector()})
	ix.Upsert(Item{ID: "b", Key: "k2", Vec: wl(7.6).Vector()})
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, Record{Item: Item{ID: "a"}, Del: true}); err != nil {
		t.Fatal(err)
	}
	ix.Remove("a")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := Record{Item: Item{ID: "c", Key: "k1", Vec: wl(8.6).Vector()}}
	if err := Append(path, last); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn")
	for cut := len(before); cut < len(whole); cut++ {
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		sameItems(t, fmt.Sprintf("cut at byte %d of %d", cut, len(whole)), Load(torn), ix)
	}
	// More appended behind a torn record does not bring it back, nor itself.
	after := append(append([]byte(nil), whole[:len(whole)-5]...), "\n{\"id\":\"d\",\"key\":\"k1\",\"vec\":[1]}\n"...)
	if err := os.WriteFile(torn, after, 0o644); err != nil {
		t.Fatal(err)
	}
	sameItems(t, "torn record in the middle", Load(torn), ix)
	ix.Upsert(last.Item)
	sameItems(t, "whole file", Load(path), ix)
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
