package service

import (
	"fmt"
	"math"
	"strings"
)

// Fingerprint identifies a class of tuning workloads: same simulated cluster,
// same benchmark, input sizes in the same logarithmic bucket, and the same
// set of enabled techniques. It is the history store's key — how sessions
// are filed, not how they are found: retrieval is by feature-vector distance
// (Recommender.nearest) and crosses buckets.
type Fingerprint struct {
	// Cluster is the normalized cluster name ("arm" or "x86").
	Cluster string `json:"cluster"`
	// Benchmark is the benchmark name ("TPC-DS", "TPC-H", ...).
	Benchmark string `json:"benchmark"`
	// SizeBucket is round(log2(DataSizeGB)): sizes within roughly a factor
	// of ~1.4 of a power of two share a bucket.
	SizeBucket int `json:"size_bucket"`
	// Techniques encodes which of QCSA / IICP / DAGP were enabled, e.g.
	// "qid" for all three or "-" for none. Sessions run with different
	// technique sets produce differently-shaped artifacts, so they do not
	// share history.
	Techniques string `json:"techniques"`
}

// SizeBucketOf maps a data size to its fingerprint bucket.
func SizeBucketOf(dataGB float64) int {
	if dataGB <= 1 {
		return 0
	}
	return int(math.Round(math.Log2(dataGB)))
}

// techniquesCode encodes enabled techniques compactly and stably.
func techniquesCode(useQCSA, useIICP, useDAGP bool) string {
	s := ""
	if useQCSA {
		s += "q"
	}
	if useIICP {
		s += "i"
	}
	if useDAGP {
		s += "d"
	}
	if s == "" {
		s = "-"
	}
	return s
}

// NewFingerprint derives the fingerprint of a normalized job spec.
func NewFingerprint(spec JobSpec) Fingerprint {
	return Fingerprint{
		Cluster:    spec.Cluster,
		Benchmark:  spec.Benchmark,
		SizeBucket: SizeBucketOf(spec.DataSizeGB),
		Techniques: techniquesCode(!spec.DisableQCSA, !spec.DisableIICP, !spec.DisableDAGP),
	}
}

// keySafe reports whether c may appear verbatim in a history key: the
// allowlist is [A-Za-z0-9._-] plus '%', the escape marker safeComponent
// emits.
func keySafe(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '.' || c == '_' || c == '-' || c == '%':
		return true
	}
	return false
}

// safeComponent escapes every byte outside [A-Za-z0-9.-] as %XX. '%' is
// escaped so pre-escaped input cannot collide, and '_' because Key() uses it
// as the field separator — together that keeps component→key mapping
// injective. The fingerprint components come from an HTTP JobSpec; without
// this a benchmark name like "../../x" would let a stored key escape the
// FileStore directory.
func safeComponent(s string) string {
	verbatim := func(c byte) bool { return keySafe(c) && c != '%' && c != '_' }
	needs := false
	for i := 0; i < len(s); i++ {
		if !verbatim(s[i]) {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		if verbatim(s[i]) {
			b.WriteByte(s[i])
		} else {
			fmt.Fprintf(&b, "%%%02X", s[i])
		}
	}
	return b.String()
}

// ValidKey reports whether key is safe to use as a FileStore shard name:
// non-empty, no traversal, only allowlisted bytes. Every Key() output
// satisfies it; the HTTP history endpoint and the FileStore reject anything
// else before the key ever reaches filepath.Join.
func ValidKey(key string) bool {
	if key == "" || key == "." || key == ".." {
		return false
	}
	for i := 0; i < len(key); i++ {
		if !keySafe(key[i]) {
			return false
		}
	}
	return true
}

// Key renders the fingerprint as a stable, filesystem-safe string — the
// history store's primary key and the file name of the FileStore shard.
// Components are sanitized byte-wise, so a hostile Benchmark or Cluster
// string cannot smuggle path separators or traversal into the key.
func (f Fingerprint) Key() string {
	return fmt.Sprintf("%s_%s_b%d_%s",
		safeComponent(f.Cluster), safeComponent(f.Benchmark), f.SizeBucket, safeComponent(f.Techniques))
}
