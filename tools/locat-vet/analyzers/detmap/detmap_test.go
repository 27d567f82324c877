package detmap_test

import (
	"testing"

	"locat/tools/locat-vet/analysistest"
	"locat/tools/locat-vet/analyzers/detmap"
)

func TestDeterministicPackage(t *testing.T) {
	analysistest.Run(t, detmap.Analyzer, "qcsa")
}

func TestNonDeterministicPackageIgnored(t *testing.T) {
	analysistest.Run(t, detmap.Analyzer, "service")
}

func TestAllowDirective(t *testing.T) {
	analysistest.Run(t, detmap.Analyzer, "core")
}

func TestCatchesSeededViolation(t *testing.T) {
	analysistest.MustFail(t, detmap.Analyzer, "qcsa")
	analysistest.MustFail(t, detmap.Analyzer, "core")
}
