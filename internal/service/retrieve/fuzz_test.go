package retrieve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"
)

// replayOracle is the index log's contract restated line by line: a header
// of this schema or nothing; then records in order, the last for an ID
// winning, up to the first line that is not a record; a last line without a
// newline never counts. whole reports that every byte was a line replayed, so
// that a record appended now is replayed too.
func replayOracle(data []byte) (items map[string]Item, whole bool) {
	items = map[string]Item{}
	lines := strings.Split(string(data), "\n")
	torn := lines[len(lines)-1] != ""
	lines = lines[:len(lines)-1]
	var h struct {
		Schema int `json:"schema"`
	}
	if len(lines) == 0 || json.Unmarshal([]byte(lines[0]), &h) != nil || h.Schema != IndexSchema {
		return items, false
	}
	for _, line := range lines[1:] {
		var r Record
		if json.Unmarshal([]byte(line), &r) != nil || r.ID == "" {
			return items, false
		}
		if r.Del {
			delete(items, r.ID)
		} else {
			items[r.ID] = r.Item
		}
	}
	return items, !torn
}

// snapshot is the file Save writes for the items: two indexes hold the same
// items exactly when their snapshots are the same bytes.
func snapshot(t *testing.T, ix *Index) []byte {
	t.Helper()
	p := filepath.Join(t.TempDir(), "snapshot")
	if err := ix.Save(p); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzIndexReplay: whatever bytes the index file holds, Load returns an index
// and never fails; it holds what the line-by-line oracle holds; a snapshot of
// it loads back to the same items; and when the file was whole, a record
// appended to it is replayed on top.
func FuzzIndexReplay(f *testing.F) {
	header := `{"schema":2}` + "\n"
	a := `{"id":"k/a@1","key":"k","vec":[0.5,1,2]}` + "\n"
	b := `{"id":"k/b@2","key":"k","vec":[1e-7,3]}` + "\n"
	for _, log := range []string{
		header + a + b,
		header + a + b + `{"id":"k/a@1","del":true}` + "\n",
		header + a + `{"id":"k/a@1","key":"k2","vec":[9]}` + "\n",
		header + a + `{"id":"k/b@2","key":"k","ve`, // torn
		header + a + "not a record\n" + b,
		header + a + `{"id":""}` + "\n" + b,
		header + a + `{"ID":"upper","Key":"k","VEC":[1],"DEL":false}` + "\n",
		header + `{"id":"dup","id":"dup2","vec":[1e999]}` + "\n",
		header + `{"id":"x","vec":null,"key":null}` + "\n\n" + b,
		`{"schema":1,"items":[]}` + "\n" + a,
		`{"schema":2.0}` + "\n" + a,
		`{"schema":"2"}` + "\n" + a,
		header, a, "", "\n", "null\n", "[]\n" + a,
	} {
		f.Add([]byte(log), "k/new@3", false)
		f.Add([]byte(log), "k/a@1", true)
	}
	f.Fuzz(func(t *testing.T, data []byte, id string, del bool) {
		path := filepath.Join(t.TempDir(), "knn.index")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ix := Load(path)
		want, whole := replayOracle(data)
		oracle := &Index{items: want}
		got := snapshot(t, ix)
		if !bytes.Equal(got, snapshot(t, oracle)) {
			t.Fatalf("Load replays %q to\n%sthe oracle to\n%s", data, got, snapshot(t, oracle))
		}
		resaved := filepath.Join(t.TempDir(), "resaved")
		if err := os.WriteFile(resaved, got, 0o644); err != nil {
			t.Fatal(err)
		}
		if back := snapshot(t, Load(resaved)); !bytes.Equal(back, got) {
			t.Fatalf("the snapshot\n%sloads back as\n%s", got, back)
		}
		if id == "" || !utf8.ValidString(id) || !whole {
			return // Append would refuse the one and rewrite the other
		}
		rec := Record{Item: Item{ID: id, Key: "k", Vec: []float64{1, 2}}, Del: del}
		if err := Append(path, rec); err != nil {
			t.Fatal(err)
		}
		if del {
			delete(want, id)
		} else {
			want[id] = rec.Item
		}
		if after := snapshot(t, Load(path)); !bytes.Equal(after, snapshot(t, oracle)) {
			t.Fatalf("after appending %+v to %q the file replays to\n%swant\n%s", rec, data, after, snapshot(t, oracle))
		}
	})
}
