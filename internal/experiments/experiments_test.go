package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
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
			if tab.Title == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("%s: malformed table %+v", id, tab)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("%s: row width %d != header %d", id, len(row), len(tab.Header))
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
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad cell %q: %v", cell, err)
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
	kept := tables[1].Rows[0][1]
	n, _ := strconv.Atoi(strings.Fields(kept)[0])
	if n < 16 || n > 30 {
		t.Fatalf("kept %d queries; want ≈23", n)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tab := Table{ID: "x", Title: "t", Header: []string{"a", "long-header"},
		Rows: [][]string{{"wide-cell-content", "1"}}}
	var buf bytes.Buffer
	tab.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "== x: t ==") {
		t.Fatalf("header line %q", lines[0])
	}
}
