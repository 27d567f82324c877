package retrieve

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzIndexReplay: whatever bytes the index file holds, Load returns an index
// and never fails, every item it returns has an ID, and what it returns, saved
// and loaded again, is the same items, vectors bit for bit.
func FuzzIndexReplay(f *testing.F) {
	header := fmt.Sprintf(`{"schema":%d}`, IndexSchema) + "\n"
	a := `{"id":"k/a@1","key":"k","vec":[0.5,1,2]}` + "\n"
	b := `{"id":"k/b@2","key":"k","vec":[1e-7,3]}` + "\n"
	for _, file := range []string{
		header + a + b,
		header + a + b + `{"id":"k/a@1","del":true}` + "\n",
		header + a + `{"id":"k/a@1","key":"k2","vec":[9]}` + "\n",
		header + a + `{"id":"k/b@2","key":"k","ve`, // torn
		header + a + "not an item\n" + b,
		header + a + `{"id":""}` + "\n" + b,
		header + a + `{"ID":"upper","Key":"k","VEC":[1],"DEL":false}` + "\n",
		header + `{"id":"dup","id":"dup2","vec":[1e999]}` + "\n",
		header + `{"id":"x","vec":null,"key":null}` + "\n\n" + b,
		`{"schema":1,"items":[]}` + "\n" + a,
		fmt.Sprintf(`{"schema":%d.0}`, IndexSchema) + "\n" + a,
		fmt.Sprintf(`{"schema":"%d"}`, IndexSchema) + "\n" + a,
		header, a, "", "\n", "null\n", "[]\n" + a,
	} {
		f.Add([]byte(file))
		f.Add([]byte(file[:max(0, len(file)-1)])) // its last line torn
	}
	// The files earlier schemas wrote: schema 1's single document, committed
	// beside the seed history, and schema 2's log with a tombstone.
	schema1, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "history-seed", "knn.index"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(schema1)
	f.Add([]byte(`{"schema":2}` + "\n" + a + b + `{"id":"k/a@1","del":true}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "knn.index")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ix := Load(path)
		items := ix.Items()
		for _, it := range items {
			if it.ID == "" {
				t.Fatalf("Load of %q returned an item without an ID: %+v", data, it)
			}
		}
		resaved := filepath.Join(dir, "resaved")
		if err := ix.Save(resaved); err != nil {
			t.Fatal(err)
		}
		if back := Load(resaved).Items(); !reflect.DeepEqual(back, items) {
			t.Fatalf("Load of %q holds\n%+v\nsaved and loaded again\n%+v", data, items, back)
		}
	})
}
