package conf

import (
	"bytes"
	"strings"
	"testing"
)

func TestFormatSparkConfDefault(t *testing.T) {
	s := NewSpace(ProfileARM, ResourceLimits{ContainerCores: 8, ContainerMemMB: 64 * 1024, TotalCores: 384, TotalMemMB: 1536 * 1024})
	var buf bytes.Buffer
	if err := FormatSparkConf(&buf, s.Default()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != NumParams {
		t.Fatalf("emitted %d lines; want %d", len(lines), NumParams)
	}
	// Unit suffixes and booleans.
	if !strings.Contains(out, "spark.executor.memory") {
		t.Fatal("missing executor.memory")
	}
	for _, want := range []string{
		"spark.shuffle.compress                                         true",
		"spark.locality.wait                                            3s",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Sorted keys.
	for i := 1; i < len(lines); i++ {
		if strings.Fields(lines[i])[0] < strings.Fields(lines[i-1])[0] {
			t.Fatal("keys not sorted")
		}
	}
}

func TestFormatSparkConfErrors(t *testing.T) {
	if err := FormatSparkConf(&bytes.Buffer{}, make(Config, 3)); err == nil {
		t.Fatal("short config accepted")
	}
}
