package service

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestFingerprintStable(t *testing.T) {
	spec := JobSpec{Cluster: "x86", Benchmark: "TPC-H", DataSizeGB: 150, Seed: 3}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	a := NewFingerprint(spec)
	b := NewFingerprint(spec)
	if a != b || a.Key() != b.Key() {
		t.Fatalf("fingerprint not stable: %v vs %v", a, b)
	}
	if a.Key() != "x86_TPC-H_b7_qid" {
		t.Fatalf("unexpected key %q", a.Key())
	}
}

func TestFingerprintSeparatesWorkloads(t *testing.T) {
	base := JobSpec{Cluster: "arm", Benchmark: "TPC-DS", DataSizeGB: 100}
	variants := []JobSpec{
		{Cluster: "x86", Benchmark: "TPC-DS", DataSizeGB: 100},
		{Cluster: "arm", Benchmark: "TPC-H", DataSizeGB: 100},
		{Cluster: "arm", Benchmark: "TPC-DS", DataSizeGB: 1000},
		{Cluster: "arm", Benchmark: "TPC-DS", DataSizeGB: 100, DisableQCSA: true},
		{Cluster: "arm", Benchmark: "TPC-DS", DataSizeGB: 100, DisableIICP: true},
	}
	bk := NewFingerprint(base).Key()
	for _, v := range variants {
		if NewFingerprint(v).Key() == bk {
			t.Fatalf("variant %+v collides with base key %s", v, bk)
		}
	}
}

func TestFingerprintNeighboringSizesShareBucket(t *testing.T) {
	// 100 GB and 140 GB both round to bucket 7 — the warm-start scenario
	// of the acceptance test.
	a := JobSpec{Cluster: "arm", Benchmark: "TPC-H", DataSizeGB: 100}
	b := JobSpec{Cluster: "arm", Benchmark: "TPC-H", DataSizeGB: 140}
	if NewFingerprint(a).Key() != NewFingerprint(b).Key() {
		t.Fatalf("100 GB (%s) and 140 GB (%s) should share a bucket",
			NewFingerprint(a).Key(), NewFingerprint(b).Key())
	}
}

func TestSizeBucketOf(t *testing.T) {
	cases := []struct {
		gb   float64
		want int
	}{{0.5, 0}, {1, 0}, {2, 1}, {100, 7}, {140, 7}, {200, 8}, {1024, 10}}
	for _, c := range cases {
		if got := SizeBucketOf(c.gb); got != c.want {
			t.Errorf("SizeBucketOf(%v) = %d, want %d", c.gb, got, c.want)
		}
	}
}

func TestKeySanitizesHostileComponents(t *testing.T) {
	// Fingerprint components come straight from an HTTP JobSpec; Key() must
	// be filesystem-safe no matter what they contain.
	f := Fingerprint{
		Cluster:    "../../etc",
		Benchmark:  "TPC-DS/../..\\evil name",
		SizeBucket: 5,
		Techniques: "qid",
	}
	key := f.Key()
	if !ValidKey(key) {
		t.Fatalf("Key() produced an invalid key %q", key)
	}
	if strings.ContainsAny(key, "/\\ ") {
		t.Fatalf("separators or spaces survived sanitization: %q", key)
	}
	// Sanitization must be injective: distinct hostile names map to distinct
	// keys ('%' is escaped too, so pre-escaped input cannot collide).
	g := f
	g.Benchmark = "TPC-DS%2F.." + `%5Cevil name`
	if g.Key() == key {
		t.Fatalf("distinct benchmarks collided on %q", key)
	}
	// '_' in a component must not collide with the field separator:
	// ("a_b","c") and ("a","b_c") are different workloads.
	p := Fingerprint{Cluster: "a_b", Benchmark: "c", SizeBucket: 5, Techniques: "qid"}
	q := Fingerprint{Cluster: "a", Benchmark: "b_c", SizeBucket: 5, Techniques: "qid"}
	if p.Key() == q.Key() {
		t.Fatalf("separator collision: both map to %q", p.Key())
	}
	// Benign keys are untouched.
	benign := Fingerprint{Cluster: "arm", Benchmark: "TPC-DS", SizeBucket: 7, Techniques: "qid"}
	if got := benign.Key(); got != "arm_TPC-DS_b7_qid" {
		t.Fatalf("benign key rewritten: %q", got)
	}
}

func TestValidKey(t *testing.T) {
	for _, ok := range []string{"arm_TPC-DS_b7_qid", "x86_hi.bench_b-3_-", "a%2Fb"} {
		if !ValidKey(ok) {
			t.Errorf("ValidKey(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, "a b", "../x", "a\x00b"} {
		if ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
	}
}

// FuzzFingerprintKey: whatever a job spec names, its fingerprint's key is a
// valid key, and no string FileStore.path accepts as a key names a file
// outside the store directory.
func FuzzFingerprintKey(f *testing.F) {
	f.Add("arm", "TPC-DS", 7, "qid")
	f.Add("x86", "TPC-H", -3, "-")
	f.Add("../../etc", "TPC-DS/../..\\evil name", 5, "qid")
	f.Add("a_b", "%2F..", 0, "..")
	f.Add(".", "..", 1<<62, "")
	f.Add("", "a\x00b", -1<<63, "\xff/\u00e9")
	fs := &FileStore{dir: filepath.Join("store", "history")}
	inside := func(t *testing.T, key string) {
		p, err := fs.path(key)
		if err != nil {
			return
		}
		if filepath.Dir(p) != fs.dir || filepath.Base(p) != key+".json" {
			t.Fatalf("key %q maps to %q, outside %q", key, p, fs.dir)
		}
	}
	f.Fuzz(func(t *testing.T, cluster, benchmark string, bucket int, techniques string) {
		key := Fingerprint{Cluster: cluster, Benchmark: benchmark, SizeBucket: bucket, Techniques: techniques}.Key()
		if !ValidKey(key) {
			t.Fatalf("Key() of (%q, %q, %d, %q) is %q, not a valid key", cluster, benchmark, bucket, techniques, key)
		}
		for _, k := range []string{key, cluster, benchmark, techniques} {
			inside(t, k)
		}
	})
}
