package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"locat/internal/conf"
	"locat/internal/runner"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// defaultWins evaluates every configuration but the default as twice as slow
// as the default, so whatever a session selects loses to it.
type defaultWins struct{ runner.Runner }

func (d defaultWins) NoiselessAppTime(app *runner.Application, c conf.Config, dataGB float64) float64 {
	def := d.Space().Default()
	sec := d.Runner.NoiselessAppTime(app, def, dataGB)
	if !reflect.DeepEqual(c, def) {
		sec *= 2
	}
	return sec
}

// A selection that evaluates worse than the default falls back to it, and
// the progress line says how bad the rejected selection was — not the
// default's latency twice.
func TestGuardrailFallsBackAndLogsTheRejectedLatency(t *testing.T) {
	cl := sparksim.ARM()
	var lines []string
	o := quickOpts()
	o.Logf = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	rep, err := New(defaultWins{sparksim.New(cl, 1)}, workloads.TPCH(), o).Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack || !reflect.DeepEqual(rep.Best, cl.Space().Default()) || rep.TunedSec != rep.BaselineSec {
		t.Fatalf("FellBack %v, tuned %v s, baseline %v s; want the default recommended at its own latency",
			rep.FellBack, rep.TunedSec, rep.BaselineSec)
	}
	var selected, def float64
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "guardrail:") {
			if _, err := fmt.Sscanf(l, "guardrail: selected configuration (%f s) loses to the default (%f s)", &selected, &def); err != nil {
				t.Fatalf("guardrail line %q: %v", l, err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no guardrail line among %q", lines)
	}
	if selected <= def {
		t.Fatalf("guardrail line reports the rejected selection at %v s against a default of %v s; want the selection's own, slower latency", selected, def)
	}
}
