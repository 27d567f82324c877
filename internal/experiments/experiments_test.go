package experiments

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

// quickSession returns a reduced-budget session shared by the smoke tests.
func quickSession() *Session { return NewSession(1, true) }

func TestEveryDriverRunsQuick(t *testing.T) {
	s := quickSession()
	for _, id := range IDs() {
		run := Registry[id]
		tables, err := run(s)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s: no tables", id)
		}
		for _, tab := range tables {
			if tab.Title == "" || len(tab.Cols) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("%s: malformed table %+v", id, tab)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Cols) {
					t.Fatalf("%s: row width %d != header %d", id, len(row), len(tab.Cols))
				}
			}
			var buf bytes.Buffer
			tab.Render(&buf)
			if !strings.Contains(buf.String(), tab.Title) {
				t.Fatalf("%s: render missing title", id)
			}
		}
	}
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatalf("IDs() returned %d; registry has %d", len(ids), len(Registry))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("IDs not sorted")
		}
	}
	for _, want := range []string{"fig2", "fig8", "fig11", "fig13", "fig21", "table3"} {
		if _, ok := Registry[want]; !ok {
			t.Fatalf("registry missing %s", want)
		}
	}
}

func TestTuneMemoization(t *testing.T) {
	s := quickSession()
	a, err := s.Tune("arm", "Join", "GBO-RL", 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Tune("arm", "Join", "GBO-RL", 100)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Tune did not memoize")
	}
	if _, err := s.Tune("arm", "Join", "NoSuchTuner", 100); err == nil {
		t.Fatal("unknown tuner accepted")
	}
	if _, err := s.Tune("arm", "NoSuchBench", "LOCAT", 100); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFig11LOCATWinsOptimizationTime(t *testing.T) {
	// The paper's primary claim: LOCAT reduces every SOTA tuner's
	// optimization time. Every reduction factor must exceed 1.
	s := quickSession()
	tables, err := Fig11OptTimeARM(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		for _, cell := range row[1:] {
			v, ok := cell.(float64)
			if !ok {
				t.Fatalf("cell %v is not a number", cell)
			}
			if v <= 1 {
				t.Fatalf("optimization-time reduction %v ≤ 1 in row %v", v, row)
			}
		}
	}
}

func TestFig8ShapeFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full QCSA protocol")
	}
	// Non-quick Figure 8 must reproduce the paper's classification shape.
	s := NewSession(1, false)
	tables, err := Fig8QueryCV(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables", len(tables))
	}
	if len(tables[0].Rows) != 104 {
		t.Fatalf("fig8 lists %d queries; want 104", len(tables[0].Rows))
	}
	// Summary row 0: kept count within the paper's neighbourhood.
	n := tables[1].Rows[0][1].(num).v
	if n < 16 || n > 30 {
		t.Fatalf("kept %v queries; want ≈23", n)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	// The multi-byte cells ("→", "×") take fewer columns on screen than
	// bytes; every column must still start at the same screen column.
	tab := Table{ID: "x", Title: "t", Cols: []Col{{Name: "a"}, {Name: "gain (×)", Fmt: "%.0f"}, {Name: "c", Fmt: "%.0f"}},
		Rows: [][]any{{"wide-cell-content", 1.0, 5.0}, {"growth 100→300", num{2, "%.2f"}, 6.0}}}
	var buf bytes.Buffer
	tab.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "== x: t ==") {
		t.Fatalf("header line %q", lines[0])
	}
	screenCol := func(line, cell string) int {
		return utf8.RuneCountInString(line[:strings.Index(line, cell)])
	}
	for i, cells := range [][]string{{"gain", "c"}, {"1", "5"}, {"2.00", "6"}} {
		line := lines[i+1]
		if got := []int{screenCol(line, cells[0]), screenCol(line, cells[1])}; got[0] != 19 || got[1] != 29 {
			t.Fatalf("line %q: columns start at %v, want [19 29]", line, got)
		}
	}
}
