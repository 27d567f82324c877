// Package retrieve implements the zero-execution retrieval tier of the
// tuning service: workload feature vectors, an exact-scan k-nearest-neighbor
// index over the history store, and the distance weighting that blends the
// retrieved configurations into an instant recommendation. The design
// follows the retrieval-augmented configuration-tuning line of work — serve
// a config from similar past workloads with zero sample runs, and fall back
// to a real tuning session only when no past workload is close enough.
//
// The package is deliberately free of tuning-domain imports: the service
// layer maps job specs and history entries onto Workload feature structs,
// and everything here operates on plain vectors. The index is an exact
// linear scan — the store is capped at a few thousand entries, where a scan
// over 16-dimensional vectors is microseconds and beats any tree structure
// on simplicity and determinism.
package retrieve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Workload is the feature view of one tuning workload: the cluster it runs
// on, its input scale, the structural mix of its query plans, the technique
// set its artifacts were produced under, and how well-observed it is. Two
// workloads whose Workload vectors are close produce mutually transferable
// configurations; the field weights in Vector encode how strongly each
// property gates that transfer.
type Workload struct {
	// ClusterCode distinguishes cluster types (0 = arm, 1 = x86). Weighted
	// far past MaxDistance: resource configurations never transfer across
	// cluster architectures.
	ClusterCode float64
	// TotalCores is the cluster's core count (a secondary size signal).
	TotalCores float64
	// Log2GB is log2 of the input data size; adjacent power-of-two sizes
	// are near neighbors, mirroring the fingerprint's bucket adjacency.
	Log2GB float64
	// Queries is the benchmark's query count.
	Queries float64
	// JoinFrac and AggFrac are the fractions of join / aggregation queries
	// (the configuration-sensitive classes).
	JoinFrac, AggFrac float64
	// ShuffleFrac and InputFrac are the scan-weighted mean shuffle volume
	// and the mean scanned fraction — the plan features that dominate how a
	// configuration performs.
	ShuffleFrac, InputFrac float64
	// Stages is the mean stage depth; CPUWeight and Skew are the mean
	// compute intensity and key-skew severity.
	Stages, CPUWeight, Skew float64
	// QCSA, IICP and DAGP are the technique bits (1 = enabled). Artifacts
	// produced under a different technique set have a different shape, so a
	// mismatch is weighted past MaxDistance.
	QCSA, IICP, DAGP float64
	// ObsDeficit in [0,1] penalizes thinly-observed history entries: 0 for
	// a well-observed entry (>= 16 runs), approaching 1 for an empty one.
	// Queries under construction use 0, so richer entries rank closer.
	ObsDeficit float64
}

// Feature weights. The scale is calibrated so that, under the default
// MaxDistance of 0.75, the same benchmark one size bucket away is a good
// neighbor (distance ~0.25) while a different benchmark, cluster or
// technique set falls outside the radius.
const (
	wCluster = 2.0  // architecture mismatch: never transferable
	wCores   = 0.5  // per 256 cores
	wLog2GB  = 0.25 // per power of two of input size
	wQueries = 1.0  // per 64 queries
	wClass   = 0.5  // join/agg class-mix fractions
	wShuffle = 0.5
	wInput   = 0.3
	wStages  = 0.3 // per 6 stages
	wCPU     = 0.2
	wSkew    = 0.2
	wTech    = 1.0 // per technique bit
	wObs     = 0.15
)

// Vector renders the workload as its weighted feature vector. The weighting
// bakes the distance metric into the vectors themselves, so Distance is a
// plain Euclidean norm and persisted vectors stay comparable as long as the
// weights do not change (IndexSchema tracks that).
func (w Workload) Vector() []float64 {
	return []float64{
		wCluster * w.ClusterCode,
		wCores * w.TotalCores / 256,
		wLog2GB * w.Log2GB,
		wQueries * w.Queries / 64,
		wClass * w.JoinFrac,
		wClass * w.AggFrac,
		wShuffle * w.ShuffleFrac,
		wInput * w.InputFrac,
		wStages * w.Stages / 6,
		wCPU * w.CPUWeight,
		wSkew * w.Skew,
		wTech * w.QCSA,
		wTech * w.IICP,
		wTech * w.DAGP,
		wObs * w.ObsDeficit,
	}
}

// Distance is the Euclidean distance between two feature vectors. Vectors
// of different dimensionality (an index persisted under an older feature
// schema) are incomparable and report +Inf, so they can never be retrieved.
func Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Item is one indexed history entry: a stable ID, the history-store key the
// entry lives under, and its feature vector.
type Item struct {
	ID  string    `json:"id"`
	Key string    `json:"key"`
	Vec []float64 `json:"vec"`
}

// Match is one retrieval result.
type Match struct {
	Item
	Dist float64
}

// Index is the k-NN index: an exact-scan set of feature-vector items, safe
// for concurrent use. Save writes it to a file and Load reads it back.
type Index struct {
	mu    sync.RWMutex
	items map[string]Item
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{items: map[string]Item{}}
}

// Upsert inserts the item, replacing any previous item with the same ID.
func (ix *Index) Upsert(it Item) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.items[it.ID] = it
}

// Remove deletes the item with the given ID (a no-op when absent).
func (ix *Index) Remove(id string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	delete(ix.items, id)
}

// Has reports whether an item with the given ID is indexed.
func (ix *Index) Has(id string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.items[id]
	return ok
}

// Len returns the number of indexed items.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.items)
}

// KeyLen returns the number of indexed items under the history-store key.
func (ix *Index) KeyLen(key string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, it := range ix.items {
		if it.Key == key {
			n++
		}
	}
	return n
}

// Items returns the indexed items sorted by ID.
func (ix *Index) Items() []Item {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]Item, 0, len(ix.items))
	for _, it := range ix.items {
		out = append(out, it)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Compact removes every item the alive predicate rejects and returns how
// many were dropped — the hook that keeps the index in step with store
// eviction.
func (ix *Index) Compact(alive func(Item) bool) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	dropped := 0
	for id, it := range ix.items {
		if !alive(it) {
			delete(ix.items, id)
			dropped++
		}
	}
	return dropped
}

// Nearest returns up to k items within maxDist of vec, nearest first. Ties
// break on ID, so retrieval is deterministic regardless of insertion order
// or map iteration. maxDist <= 0 disables the radius cut; k <= 0 returns
// nothing.
//
// The scan keeps the best min(k, Len) matches so far on a max-heap ordered by
// (Dist, ID), whose root is the one the next nearer item replaces, and sorts
// them at the end: O(N log k) time over N items, and one allocation, the
// min(k, Len) matches returned, whatever k a request asks for.
func (ix *Index) Nearest(vec []float64, k int, maxDist float64) []Match {
	if k <= 0 {
		return nil
	}
	ix.mu.RLock()
	h := make([]Match, 0, min(k, len(ix.items)))
	for _, it := range ix.items {
		d := Distance(vec, it.Vec)
		if math.IsInf(d, 1) || (maxDist > 0 && d > maxDist) {
			continue
		}
		m := Match{Item: it, Dist: d}
		switch {
		case len(h) < k:
			h = append(h, m)
			siftUp(h, len(h)-1)
		case nearer(m, h[0]):
			h[0] = m
			siftDown(h, 0)
		}
	}
	ix.mu.RUnlock()
	slices.SortFunc(h, compareMatches)
	return h
}

// compareMatches orders matches by distance, then ID.
func compareMatches(a, b Match) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return strings.Compare(a.ID, b.ID)
}

// nearer reports whether a comes before b in compareMatches' order.
func nearer(a, b Match) bool { return compareMatches(a, b) < 0 }

// siftUp restores the max-heap order of h from h[i] up.
func siftUp(h []Match, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !nearer(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the max-heap order of h from h[i] down.
func siftDown(h []Match, i int) {
	for {
		far := 2*i + 1
		if far >= len(h) {
			return
		}
		if r := far + 1; r < len(h) && nearer(h[far], h[r]) {
			far = r
		}
		if !nearer(h[i], h[far]) {
			return
		}
		h[i], h[far] = h[far], h[i]
		i = far
	}
}

// IndexSchema versions the persisted index file. Bump it when the feature
// weights, the Workload layout or the file format change: Load discards
// files written under a different schema, and the caller rebuilds from the
// store.
const IndexSchema = 3

// fileHeader is the first line of the index file; every further line is one
// Item.
type fileHeader struct {
	Schema int `json:"schema"`
}

// Save writes the index to path atomically (temp file + rename): the header,
// then the items sorted by ID.
func (ix *Index) Save(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)                    // one value per line
	_ = enc.Encode(fileHeader{Schema: IndexSchema}) // an int into a buffer cannot fail
	for _, it := range ix.Items() {
		if err := enc.Encode(it); err != nil { // a vector holding NaN or Inf
			return fmt.Errorf("retrieve: encode index: %w", err)
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		_ = os.Remove(tmp) // the write error is the one to report
		return fmt.Errorf("retrieve: write index: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp) // likewise
		return fmt.Errorf("retrieve: commit index: %w", err)
	}
	return nil
}

// Load reads a persisted index; of two lines for one ID the last wins. A
// missing file, a corrupt header or a schema mismatch all yield an empty index
// and no error: the index is a cache of the store, so the correct recovery is
// always a rebuild, never a failure. For the same reason reading stops without
// an error at the first line that is not an item, and a last line with no
// newline, a file cut short, does not count.
func Load(path string) *Index {
	ix := NewIndex()
	data, err := os.ReadFile(path)
	if err != nil {
		return ix
	}
	nl := []byte{'\n'}
	header, data, ok := bytes.Cut(data, nl)
	var h fileHeader
	if !ok || json.Unmarshal(header, &h) != nil || h.Schema != IndexSchema {
		return ix
	}
	for {
		line, rest, ok := bytes.Cut(data, nl)
		var it Item
		if !ok || json.Unmarshal(line, &it) != nil || it.ID == "" {
			return ix
		}
		data = rest
		ix.items[it.ID] = it
	}
}

// Weights converts neighbor distances to normalized inverse-distance
// weights: the nearest neighbors dominate the blend, and an exact match
// (distance 0) still shares weight with its peers through the epsilon.
func Weights(dists []float64) []float64 {
	const eps = 0.05
	out := make([]float64, len(dists))
	var sum float64
	for i, d := range dists {
		out[i] = 1 / (d + eps)
		sum += out[i]
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// Blend returns the weighted mean of the vectors (configurations in the
// knob space's unit encoding). The caller snaps the blend back onto the
// discrete knob space by decoding it.
func Blend(vecs [][]float64, weights []float64) []float64 {
	if len(vecs) == 0 {
		return nil
	}
	out := make([]float64, len(vecs[0]))
	for i, v := range vecs {
		w := weights[i]
		for j := range out {
			out[j] += w * v[j]
		}
	}
	return out
}

// Confidence scores a retrieval in [0,1]: each neighbor contributes its
// similarity 1 - dist/maxDist, and the sum is normalized by the evidence
// target min(k, 3) — one perfect neighbor alone is thin evidence (~0.33),
// three near neighbors saturate the score. The threshold between serving
// instantly and falling back to a real tuning session compares against this.
func Confidence(dists []float64, k int, maxDist float64) float64 {
	if maxDist <= 0 || k <= 0 {
		return 0
	}
	var sum float64
	for _, d := range dists {
		if s := 1 - d/maxDist; s > 0 {
			sum += s
		}
	}
	want := k
	if want > 3 {
		want = 3
	}
	c := sum / float64(want)
	if c > 1 {
		c = 1
	}
	return c
}
