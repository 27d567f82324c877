package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestUnreachableFixture(t *testing.T) {
	dead, err := Unreachable(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range dead {
		names = append(names, f.Name)
	}
	want := []string{
		"example.com/mod/shapes.Square.Perimeter",
		"example.com/mod/shapes.Square.Set",
		"example.com/mod/shapes.Scale",
		"example.com/mod/shapes.grow",
	}
	if !slices.Equal(names, want) {
		t.Fatalf("unreachable = %v, want %v", names, want)
	}
	if got := dead[0].Pos; got != filepath.Join("shapes", "shapes.go")+":22" {
		t.Fatalf("Perimeter reported at %s", got)
	}
}

func TestCheckAllowAndStale(t *testing.T) {
	dead := []Func{{Name: "m.Kept", Pos: "a.go:1"}, {Name: "m.Gone", Pos: "a.go:2"}}
	got := Check(dead, map[string]string{"m.Kept": "an item names it", "m.Deleted": "once dead"})
	want := []string{
		"a.go:2: m.Gone is unreachable from every binary",
		"allow list: m.Deleted is not unreachable (stale line)",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Check = %q, want %q", got, want)
	}
}

func TestReadAllow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte("# comment\n\nm.F  a reason\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow(path)
	if err != nil || allow["m.F"] != "a reason" || len(allow) != 1 {
		t.Fatalf("readAllow = %v, %v", allow, err)
	}
	for _, bad := range []string{"m.F\n", "m.F why\nm.F why again\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readAllow(path); err == nil {
			t.Fatalf("readAllow accepted %q", bad)
		}
	}
}
