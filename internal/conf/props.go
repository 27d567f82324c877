package conf

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// unitSuffix returns the value suffix Spark expects for a parameter's unit.
func unitSuffix(unit string) string {
	switch unit {
	case "GB":
		return "g"
	case "MB":
		return "m"
	case "KB":
		return "k"
	case "s":
		return "s"
	}
	return ""
}

// FormatSparkConf renders a configuration in spark-defaults.conf syntax —
// one "key value" pair per line, with Spark's unit suffixes (g/m/k/s) on
// sized parameters and true/false on switches — ready to drop into a real
// cluster's conf directory. Keys are emitted in lexicographic order.
func FormatSparkConf(w io.Writer, c Config) error {
	if len(c) != NumParams {
		return fmt.Errorf("conf: config has %d values, want %d", len(c), NumParams)
	}
	type kv struct{ k, v string }
	out := make([]kv, 0, NumParams)
	for i, p := range params {
		var v string
		switch {
		case p.Type == Bool:
			v = "false"
			if c.Bool(i) {
				v = "true"
			}
		case p.Integer:
			v = strconv.FormatInt(int64(math.Round(c[i])), 10) + unitSuffix(p.Unit)
		default:
			v = strconv.FormatFloat(c[i], 'g', -1, 64)
		}
		out = append(out, kv{p.Name, v})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].k < out[b].k })
	for _, e := range out {
		if _, err := fmt.Fprintf(w, "%-62s %s\n", e.k, e.v); err != nil {
			return err
		}
	}
	return nil
}
