package service

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"locat/internal/conf"
	"locat/internal/core"
	"locat/internal/dagp"
	"locat/internal/progress"
	"locat/internal/service/retrieve"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// Defaults of the zero-execution recommendation tier. MaxDistance is
// calibrated against the retrieve package's feature weights: the same
// workload one size bucket away sits around 0.25, a different benchmark,
// cluster or technique set well past 0.75.
const (
	DefaultRecommendK           = 5
	DefaultRecommendMaxDistance = 0.75
	DefaultRecommendConfidence  = 0.5
)

// RecommendOptions tune one recommendation: how many neighbors to retrieve,
// how far a workload may be and still count as a neighbor, and the
// confidence below which the request falls back to a real tuning session.
// Zero values pick the service's configured defaults.
type RecommendOptions struct {
	K             int     `json:"k,omitempty"`
	MaxDistance   float64 `json:"max_distance,omitempty"`
	MinConfidence float64 `json:"min_confidence,omitempty"`
}

// or fills the fields o leaves unset (zero or negative) from d.
func (o RecommendOptions) or(d RecommendOptions) RecommendOptions {
	if o.K <= 0 {
		o.K = d.K
	}
	if o.MaxDistance <= 0 {
		o.MaxDistance = d.MaxDistance
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = d.MinConfidence
	}
	return o
}

// RecommendRequest is the wire format of POST /v1/recommend: the workload
// spec, optional retrieval overrides, and the two mode flags.
type RecommendRequest struct {
	JobSpec
	RecommendOptions
	// Refine, on a confident hit, additionally submits a background tuning
	// job (reported as RefineJobID) — serve the blended config now, converge
	// to a tuned one later.
	Refine bool `json:"refine,omitempty"`
	// NoFallback suppresses the automatic tuning-job submission when
	// confidence is low: the response reports outcome "miss" instead.
	NoFallback bool `json:"no_fallback,omitempty"`
}

// Neighbor is the provenance of one retrieved history entry.
type Neighbor struct {
	JobID    string  `json:"job_id"`
	Key      string  `json:"key"`
	Distance float64 `json:"distance"`
	Weight   float64 `json:"weight"`
	TunedSec float64 `json:"tuned_sec"`
	TargetGB float64 `json:"target_gb"`
	Obs      int     `json:"obs"`
}

// Recommendation is the outcome of a zero-execution recommendation.
type Recommendation struct {
	// Outcome is "hit" (config served from retrieval), "fallback" (low
	// confidence; a tuning job was submitted as RefineJobID) or "miss" (low
	// confidence and NoFallback). The served config and provenance are
	// present on every outcome with at least one usable neighbor.
	Outcome string `json:"outcome"`
	// BestConfig / BestParams / SparkConf are the distance-weighted blend
	// of the neighbors' best-observed configurations, snapped to the knob
	// space.
	BestConfig conf.Config        `json:"best_config,omitempty"`
	BestParams map[string]float64 `json:"best_params,omitempty"`
	SparkConf  string             `json:"spark_conf,omitempty"`
	// Confidence in [0,1] scores the retrieval evidence (see
	// retrieve.Confidence).
	Confidence float64 `json:"confidence"`
	// EstimatedSec is the distance-weighted mean of the neighbors' tuned
	// latencies — a rough expectation, not a measurement.
	EstimatedSec float64 `json:"estimated_sec,omitempty"`
	// Neighbors is the retrieval provenance, nearest first.
	Neighbors []Neighbor `json:"neighbors"`
	// RefineJobID is the background tuning job submitted for refine=true
	// hits and for low-confidence fallbacks.
	RefineJobID string `json:"refine_job_id,omitempty"`
	// RefineError records a refine submission that failed (the
	// recommendation itself still stands).
	RefineError string `json:"refine_error,omitempty"`
}

// Recommender is the zero-execution recommendation engine: a k-NN index of
// feature vectors over the history store. It never touches an execution
// backend — Recommend costs index-scan microseconds and zero sample runs.
//
// The index is a cache of the store. On construction it is loaded from the
// store's index file (when the store has one), synced against the store's
// actual contents and written back as the next start-up's snapshot; from then
// on it lives in memory only. Entries evicted from the store afterwards are
// compacted out lazily when retrieval finds them gone.
type Recommender struct {
	store Store
	logf  progress.Logf

	// defaults fill what a request's options leave unset (the service
	// replaces them with its Config.Recommend* values).
	defaults RecommendOptions
	// maxPriorObs caps the observations of a warm-start prior, keeping the
	// GP fitting cost bounded no matter how much history accumulates.
	maxPriorObs int

	mu sync.Mutex // keeps a reconcile atomic against a concurrent Add
	ix *retrieve.Index
}

// NewRecommender builds a recommender over the store, loading the index file
// when the store keeps one (FileStore) and syncing it with the store's
// contents — vectors survive restarts, and entries added or evicted while
// the index was offline are reconciled here. The synced index replaces the
// file, whatever it held before. logf, if non-nil, receives what goes wrong
// with the index, from that first reconciliation on.
func NewRecommender(store Store, logf progress.Logf) *Recommender {
	rc := &Recommender{store: store, logf: logf, maxPriorObs: 48, defaults: RecommendOptions{
		DefaultRecommendK, DefaultRecommendMaxDistance, DefaultRecommendConfidence}}
	path := ""
	if ip, ok := store.(interface{ IndexPath() string }); ok {
		path = ip.IndexPath()
		rc.ix = retrieve.Load(path)
	} else {
		rc.ix = retrieve.NewIndex()
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	keys, err := store.Keys()
	if err != nil {
		progress.F(logf, "recommender: index rebuild: %v", err)
		return rc
	}
	rc.reconcileLocked("rebuild read", keys, true)
	if path != "" {
		if err := rc.ix.Save(path); err != nil {
			progress.F(logf, "recommender: index save: %v", err)
		}
	}
	return rc
}

// Len returns the number of indexed history entries.
func (rc *Recommender) Len() int { return rc.ix.Len() }

// entryID is the index identity of a history entry: stable across restarts,
// unique enough that a collision can only be the same session persisted
// twice (in which case replacing is the right outcome).
func entryID(e Entry) string {
	return e.Fingerprint.Key() + "/" + e.JobID + "@" + strconv.FormatInt(e.CreatedUnix, 10)
}

// indexItem featurizes a history entry. Entries whose benchmark the binary
// no longer knows cannot be featurized and are skipped (not an error: the
// store may hold entries from a newer build). obs is len(e.Obs), which a
// reader that skipped the observations hands over separately.
func indexItem(e Entry, obs int) (retrieve.Item, bool) {
	w, err := workloadOf(e.Fingerprint.Cluster, e.Fingerprint.Benchmark,
		e.TargetGB, e.Fingerprint.Techniques, obs)
	if err != nil {
		return retrieve.Item{}, false
	}
	return retrieve.Item{ID: entryID(e), Key: e.Fingerprint.Key(), Vec: w.Vector()}, true
}

// specWorkload featurizes a (normalized) job spec as the retrieval query.
// The observation-deficit dimension is 0: the query asks for well-observed
// neighbors.
func specWorkload(spec JobSpec) (retrieve.Workload, error) {
	tech := techniquesCode(!spec.DisableQCSA, !spec.DisableIICP, !spec.DisableDAGP)
	return workloadOf(spec.Cluster, spec.Benchmark, spec.DataSizeGB, tech, 16)
}

// planMix holds, per benchmark, the retrieval features its query plans fix
// (query count, class fractions, scan-weighted shuffle volume, stage depth,
// compute intensity, skew), worked out once: building an application to read
// them costs more than a recommendation's whole index scan.
var planMix = sync.OnceValue(func() map[string]retrieve.Workload {
	mix := map[string]retrieve.Workload{}
	for _, app := range workloads.Suites() {
		n := len(app.Queries)
		w := retrieve.Workload{Queries: float64(n)}
		var joins, aggs, shuffle, scanned, input, stages, cpu, skew float64
		for _, q := range app.Queries {
			switch q.Class {
			case sparksim.Join:
				joins++
			case sparksim.Aggregation:
				aggs++
			}
			shuffle += q.InputFrac * q.ShuffleFrac
			scanned += q.InputFrac
			input += q.InputFrac
			stages += float64(q.Stages)
			cpu += q.CPUWeight
			skew += q.Skew
		}
		fn := float64(n)
		w.JoinFrac, w.AggFrac = joins/fn, aggs/fn
		if scanned > 0 {
			w.ShuffleFrac = shuffle / scanned
		}
		w.InputFrac = input / fn
		w.Stages = stages / fn
		w.CPUWeight = cpu / fn
		w.Skew = skew / fn
		mix[app.Name] = w
	}
	return mix
})

// workloadOf maps the tuning domain onto the retrieve feature space:
// cluster architecture and scale, log input size, the benchmark's query-plan
// mix (planMix), the technique bits, and how many observations back the
// entry.
func workloadOf(cluster, benchmark string, dataGB float64, techniques string, obsCount int) (retrieve.Workload, error) {
	w, ok := planMix()[benchmark]
	if !ok {
		return retrieve.Workload{}, workloads.Check(benchmark)
	}
	cl, err := sparksim.ClusterByName(cluster)
	if err != nil {
		return retrieve.Workload{}, err
	}
	w.TotalCores = float64(cl.TotalCores())
	if cluster == "x86" {
		w.ClusterCode = 1
	}
	if dataGB > 1 {
		w.Log2GB = math.Log2(dataGB)
	}
	if strings.Contains(techniques, "q") {
		w.QCSA = 1
	}
	if strings.Contains(techniques, "i") {
		w.IICP = 1
	}
	if strings.Contains(techniques, "d") {
		w.DAGP = 1
	}
	if d := 1 - float64(obsCount)/16; d > 0 {
		w.ObsDeficit = d
	}
	return w, nil
}

// stored reads the entries under key for reconcileLocked and Recommend, which
// want no more than heads: from a store that has them (FileStore.heads), else
// whole.
func (rc *Recommender) stored(key string) ([]Entry, []int, error) {
	if hs, ok := rc.store.(interface {
		heads(string) ([]Entry, []int, error)
	}); ok {
		return hs.heads(key)
	}
	return rc.whole(key)
}

// whole reads the entries under key with everything they hold, for Prior.
func (rc *Recommender) whole(key string) ([]Entry, []int, error) {
	entries, err := rc.store.Get(key)
	return entries, obsCounts(entries), err
}

// reconcileLocked syncs the index with what the store holds under keys:
// featurize entries the index does not know (preserving already-persisted
// vectors, which is the point of the index file) and compact out items under
// those keys that the store no longer holds. With all set —
// the start-up rebuild over every key of the store — items under any other
// key are compacted out too: the store evicted those keys wholesale while the
// index was offline. A key that cannot be read (logged as "index <verb>
// <key>") keeps its items.
func (rc *Recommender) reconcileLocked(verb string, keys []string, all bool) {
	alive, unread := map[string]bool{}, map[string]bool{}
	for _, k := range keys {
		entries, obs, err := rc.stored(k)
		if err != nil {
			progress.F(rc.logf, "recommender: index %s %s: %v", verb, k, err)
			unread[k] = true
			continue
		}
		for i, e := range entries {
			id := entryID(e)
			alive[id] = true
			if rc.ix.Has(id) {
				continue
			}
			if it, ok := indexItem(e, obs[i]); ok {
				rc.ix.Upsert(it)
			}
		}
	}
	rc.ix.Compact(func(it retrieve.Item) bool {
		return alive[it.ID] || unread[it.Key] || !all && !slices.Contains(keys, it.Key)
	})
}

// Add indexes the entry the store has just been given — the post-persist
// hook. While the index holds fewer items under the entry's key than a shard
// may hold entries, the store cannot have dropped one to make room, so the
// entry is all that changed; from there on the key is reconciled as Sync does,
// which indexes the entry and drops what the cap evicted for it.
func (rc *Recommender) Add(e Entry) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if key := e.Fingerprint.Key(); rc.ix.KeyLen(key) >= maxEntriesPerKey {
		rc.reconcileLocked("sync", []string{key}, false)
		return
	}
	if it, ok := indexItem(e, len(e.Obs)); ok {
		rc.ix.Upsert(it)
	}
}

// Sync refreshes the index for one store key from the store: entries it does
// not know are indexed, entries the per-key cap evicted are dropped.
func (rc *Recommender) Sync(key string) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.reconcileLocked("sync", []string{key}, false)
}

// neighbors is the outcome of the one history retrieval: the stored sessions
// nearest first, their observation counts, their best-observed configurations
// in the unit encoding, their distances from the query and their shares of
// the distance weighting.
type neighbors struct {
	space   *conf.Space
	used    []Entry
	obs     []int
	encs    [][]float64
	dists   []float64
	weights []float64
}

// nearest is that retrieval: the (at most) o.K indexed entries within
// o.MaxDistance of the normalized spec, resolved to store entries through
// read (rc.stored or rc.whole). A match whose entry is gone is stale — the
// store evicted it — and is compacted out of the index here, lazily; one
// persisted under a different parameter table (entryConfig fails) is not a
// neighbor.
func (rc *Recommender) nearest(spec JobSpec, o RecommendOptions, read func(string) ([]Entry, []int, error)) (neighbors, error) {
	w, err := specWorkload(spec)
	if err != nil {
		return neighbors{}, err
	}
	cl, err := sparksim.ClusterByName(spec.Cluster)
	if err != nil {
		return neighbors{}, err
	}
	near := neighbors{space: cl.Space()}
	var stale []string
	byKey, obsOf := map[string][]Entry{}, map[string][]int{}
	for _, m := range rc.ix.Nearest(w.Vector(), o.K, o.MaxDistance) {
		entries, ok := byKey[m.Key]
		if !ok {
			if entries, obsOf[m.Key], err = read(m.Key); err != nil {
				return neighbors{}, err
			}
			byKey[m.Key] = entries
		}
		i := slices.IndexFunc(entries, func(e Entry) bool { return entryID(e) == m.ID })
		if i < 0 {
			stale = append(stale, m.ID)
		} else if c, ok := entryConfig(entries[i]); ok {
			near.used = append(near.used, entries[i])
			near.obs = append(near.obs, obsOf[m.Key][i])
			near.encs = append(near.encs, near.space.Encode(c))
			near.dists = append(near.dists, m.Dist)
		}
	}
	for _, id := range stale {
		rc.ix.Remove(id)
	}
	near.weights = retrieve.Weights(near.dists)
	return near, nil
}

// provenance renders the retrieved entries as the wire's Neighbor records.
func (n neighbors) provenance() []Neighbor {
	out := make([]Neighbor, 0, len(n.used))
	for i, e := range n.used {
		out = append(out, Neighbor{
			JobID:    e.JobID,
			Key:      e.Fingerprint.Key(),
			Distance: n.dists[i],
			Weight:   n.weights[i],
			TunedSec: e.TunedSec,
			TargetGB: e.TargetGB,
			Obs:      n.obs[i],
		})
	}
	return out
}

// Recommend retrieves the k nearest history entries for the spec,
// distance-weights their best-observed configurations into one blended
// config snapped to the knob space, and scores the evidence — decode, blend
// and score, nothing else. It reads the neighbors' heads (rc.stored), so no
// observation is built. The returned Recommendation has outcome "hit" or
// "miss"; job submission is the service's concern.
func (rc *Recommender) Recommend(spec JobSpec, o RecommendOptions) (*Recommendation, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	o = o.or(rc.defaults)
	near, err := rc.nearest(spec, o, rc.stored)
	if err != nil {
		return nil, err
	}
	rec := &Recommendation{Outcome: "miss", Neighbors: near.provenance()}
	if len(near.used) == 0 {
		return rec, nil
	}
	// Blend the neighbors' best configs in the unit encoding and snap the
	// result back onto the knob space (Decode rounds integer knobs and
	// repairs resource constraints).
	rec.BestConfig = near.space.Decode(retrieve.Blend(near.encs, near.weights))
	rec.BestParams = paramsToMap(rec.BestConfig)
	rec.SparkConf = sparkConfString(rec.BestConfig)
	rec.Confidence = retrieve.Confidence(near.dists, o.K, o.MaxDistance)
	for i, e := range near.used {
		rec.EstimatedSec += near.weights[i] * e.TunedSec
	}
	if rec.Confidence >= o.MinConfidence {
		rec.Outcome = "hit"
	}
	return rec, nil
}

// Prior is the warm-start prior of a session for the spec and the neighbors
// it was built from — the nearest history entries under the recommender's
// default K and radius. Both are nil when no neighbor holds a usable
// observation.
func (rc *Recommender) Prior(spec JobSpec) (*core.Prior, []Neighbor, error) {
	if err := spec.normalize(); err != nil {
		return nil, nil, err
	}
	near, err := rc.nearest(spec, rc.defaults, rc.whole)
	if err != nil {
		return nil, nil, err
	}
	prior := buildPrior(near.used, near.space, spec.DataSizeGB, rc.maxPriorObs)
	if prior == nil {
		return nil, nil, nil
	}
	return prior, near.provenance(), nil
}

// buildPrior is the one rule that turns history entries, nearest first, into
// a warm-start prior. Every observation of the space's dimension is offered
// to dagp.SelectTransfer, which ranks them against the target size and keeps
// at most maxObs; the QCSA and IICP artifacts are each taken from the first
// entry that has one. Nil when no entry holds a usable observation.
func buildPrior(entries []Entry, space *conf.Space, targetGB float64, maxObs int) *core.Prior {
	var obs []core.PriorObs
	var samples []dagp.Sample
	for _, e := range entries {
		for _, o := range e.Obs {
			if len(o.Params) != space.Dim() {
				continue // stored under a different parameter table
			}
			c := conf.Config(o.Params)
			obs = append(obs, core.PriorObs{Conf: c, DataGB: o.DataGB, Sec: o.Sec, QuerySecs: o.QuerySecs})
			samples = append(samples, dagp.Sample{X: space.Encode(c), DataGB: o.DataGB, Sec: o.Sec})
		}
	}
	if len(obs) == 0 {
		return nil
	}
	prior := &core.Prior{}
	for _, i := range dagp.SelectTransfer(samples, targetGB, maxObs) {
		prior.Obs = append(prior.Obs, obs[i])
	}
	for _, e := range entries {
		if prior.Sensitive == nil && len(e.Sensitive) > 0 {
			prior.Sensitive = append([]string(nil), e.Sensitive...)
		}
		if prior.Important == nil && len(e.Important) > 0 {
			// Names this build's parameter table does not know are dropped; an
			// entry naming none it knows leaves the choice to the next.
			for _, name := range e.Important {
				if _, idx, ok := conf.ParamByName(name); ok {
					prior.Important = append(prior.Important, idx)
				}
			}
		}
	}
	return prior
}

// entryConfig reconstructs an entry's best configuration from its
// name→value map. Entries persisted under a different parameter table (a
// missing name) are unusable for blending.
func entryConfig(e Entry) (conf.Config, bool) {
	params := conf.Params()
	c := make(conf.Config, len(params))
	for i, p := range params {
		v, ok := e.BestParams[p.Name]
		if !ok {
			return nil, false
		}
		c[i] = v
	}
	return c, true
}

// Recommend serves a zero-execution recommendation: retrieve, blend, score
// — and, depending on the outcome and the request's mode flags, submit a
// background tuning job as the refine or fallback path (an ordinary job: it
// warm-starts, like any other, from the neighbors the store holds when it
// runs). The retrieval itself never executes a sample run.
func (s *Service) Recommend(req RecommendRequest) (*Recommendation, error) {
	start := time.Now()
	// Refine and fallback jobs are work a user is waiting on: they default
	// to the interactive priority class unless the caller says otherwise.
	if req.JobSpec.Priority == "" {
		req.JobSpec.Priority = PriorityInteractive
	}
	rec, err := s.rec.Recommend(req.JobSpec, req.RecommendOptions)
	if err != nil {
		s.metrics.recommendOutcome("error").Inc()
		return nil, err
	}
	s.metrics.retrieval.Observe(time.Since(start).Seconds())
	outcome := rec.Outcome
	switch {
	case rec.Outcome == "hit" && req.Refine:
		id, err := s.Submit(req.JobSpec)
		if err != nil {
			// The hit stands on its own; a refused refine job is reported,
			// not fatal.
			rec.RefineError = err.Error()
		} else {
			rec.RefineJobID = id
			outcome = "refine"
		}
	case rec.Outcome == "miss" && !req.NoFallback:
		id, err := s.Submit(req.JobSpec)
		if err != nil {
			s.metrics.recommendOutcome("error").Inc()
			return nil, err
		}
		rec.RefineJobID = id
		rec.Outcome = "fallback"
		outcome = "fallback"
	}
	s.metrics.recommendOutcome(outcome).Inc()
	s.logf("recommend: %s %s %.0f GB -> %s (confidence %.2f, %d neighbors)",
		req.JobSpec.Cluster, req.JobSpec.Benchmark, req.JobSpec.DataSizeGB,
		rec.Outcome, rec.Confidence, len(rec.Neighbors))
	return rec, nil
}

// Recommender exposes the service's recommendation engine (read-only use:
// diagnostics and experiments).
func (s *Service) Recommender() *Recommender { return s.rec }
