package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"locat"
	"locat/internal/conf"
	"locat/internal/loadgen"
	"locat/internal/runner"
	"locat/internal/service"
)

// problem is one (cluster, benchmark) pair.
type problem struct{ cluster, benchmark string }

// allProblems is every cluster × benchmark the facade supports.
func allProblems() []problem {
	var out []problem
	for _, c := range locat.Clusters() {
		for _, b := range locat.Benchmarks() {
			out = append(out, problem{c, b})
		}
	}
	return out
}

// budget is a session's sample and iteration counts.
type budget struct{ nqcsa, niicp, iters int }

// shrink scales a count down for smoke tests, never below floor.
func shrink(v int, scale float64, floor int) int {
	if scale >= 1 {
		return v
	}
	return max(int(float64(v)*scale), floor)
}

// scaled shrinks a budget for smoke tests, never below what a session needs
// to run every phase.
func (b budget) scaled(scale float64) budget {
	return budget{shrink(b.nqcsa, scale, 6), shrink(b.niicp, scale, 4), shrink(b.iters, scale, 2)}
}

// Shape of the seeded history store: every problem at ten size buckets (4 GB
// to 2.9 TB; every size up to 1 GB has the same retrieval feature, so
// smaller buckets would tie on distance) under two technique sets, three
// sessions per key — 200 keys and 600 entries. That is a store a service
// reaches after a few weeks: large enough that shard decoding, the k-NN scan
// and the eviction listing cost what they cost in production, small enough
// to build three times per run. Sixteen samples per seeding session is the
// count from which the retrieval features treat an entry as well observed.
var (
	seedBudget     = budget{nqcsa: 16, niicp: 10, iters: 3}
	seedBucketLo   = 2
	seedBucketHi   = 11
	seedTechniques = []string{"qid", "qi"}
	seedSizes      = []float64{0.85, 1, 1.2} // × 2^bucket; all inside the bucket
)

const (
	seedBaseGB = 128 // bucket 7, next to the sizes warm_serve asks for
	// seedCreatedUnix dates the seeded entries before anything a run writes.
	seedCreatedUnix = 1_600_000_000
)

// seedBucketRange is the range of size buckets the store is seeded at. A
// smoke test seeds only the three buckets warm_serve reads, one session per
// key.
func seedBucketRange(scale float64) (lo, hi int) {
	if scale < 1 {
		return 6, 8
	}
	return seedBucketLo, seedBucketHi
}

// seedStore fills fs through public calls only: one real cold session per
// problem on a throw-away in-memory service, then clones of its history
// entry put under every size bucket and technique set with sizes and
// latencies rescaled. The clones are put before the service sets a key cap,
// so seeding never lists the directory. It returns the number of keys.
func seedStore(fs *service.FileStore, cfg config) (int, error) {
	mem := service.NewMemStore()
	svc := service.New(service.Config{Workers: 1, Store: mem, CheckpointEvery: -1})
	b := seedBudget.scaled(cfg.scale)
	var ids []string
	for i, p := range allProblems() {
		id, err := svc.Submit(service.JobSpec{
			Cluster: p.cluster, Benchmark: p.benchmark, DataSizeGB: seedBaseGB,
			Seed: cfg.seed + int64(i), NQCSA: b.nqcsa, NIICP: b.niicp, MaxIterations: b.iters,
			ColdStart: true,
		})
		if err != nil {
			svc.Close()
			return 0, err
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := svc.Result(id); err != nil {
			svc.Close()
			return 0, err
		}
	}
	svc.Close()

	keys, err := mem.Keys()
	if err != nil {
		return 0, err
	}
	lo, hi := seedBucketRange(cfg.scale)
	sizes := seedSizes
	if cfg.scale < 1 {
		sizes = sizes[1:2]
	}
	n, serial := 0, int64(0)
	for _, k := range keys {
		entries, err := mem.Get(k)
		if err != nil || len(entries) != 1 {
			return 0, fmt.Errorf("seed session under %s left %d entries (%v)", k, len(entries), err)
		}
		base := entries[0]
		for bucket := lo; bucket <= hi; bucket++ {
			for _, tech := range seedTechniques {
				n++
				for j, rel := range sizes {
					e := base
					e.Fingerprint.SizeBucket = bucket
					e.Fingerprint.Techniques = tech
					e.JobID = fmt.Sprintf("seed-%06d", serial)
					e.CreatedUnix = seedCreatedUnix + serial
					serial++
					e.TargetGB = math.Exp2(float64(bucket)) * rel
					ratio := e.TargetGB / base.TargetGB
					e.TunedSec *= ratio
					e.OverheadSec *= ratio
					e.Obs = make([]service.Observation, len(base.Obs))
					for i, o := range base.Obs {
						qs := make(map[string]float64, len(o.QuerySecs))
						for q, sec := range o.QuerySecs {
							qs[q] = sec * ratio
						}
						e.Obs[i] = service.Observation{
							Params: o.Params, DataGB: o.DataGB * ratio, Sec: o.Sec * ratio, QuerySecs: qs,
						}
					}
					if err := fs.Put(e); err != nil {
						return 0, fmt.Errorf("seeding %s entry %d: %w", e.Fingerprint.Key(), j, err)
					}
				}
			}
		}
	}
	return n, nil
}

// server is an in-process tuning service over a seeded FileStore behind a
// real listener, with one closed-loop client on one keep-alive connection.
type server struct {
	svc      *service.Service
	store    *service.FileStore
	http     *http.Server
	client   *http.Client
	target   *loadgen.HTTPTarget
	rec      *recorder
	seedKeys int
}

func startServer(env *env) (*server, error) {
	fs, err := service.NewFileStore(env.dir)
	if err != nil {
		return nil, err
	}
	s := &server{store: fs, rec: env.rec}
	if s.seedKeys, err = seedStore(fs, env.cfg); err != nil {
		return nil, err
	}
	cfg := service.Config{Workers: 1, Store: fs}
	if env.rec != nil {
		cfg.Store = &tracedStore{inner: fs, rec: env.rec}
		cfg.Observers = []runner.RunObserver{&runSpans{rec: env.rec}}
	}
	s.svc = service.New(cfg)
	handler := s.svc.Handler()
	if env.rec != nil {
		handler = tracedHandler(env.rec, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		return nil, err
	}
	s.http = &http.Server{Handler: handler}
	go s.http.Serve(ln) // returns when close shuts the server down
	s.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
	s.target = &loadgen.HTTPTarget{Base: "http://" + ln.Addr().String(), Client: s.client}
	return s, nil
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.http.Close()
	s.svc.Close()
}

// pollEvery is how often the client asks for a job's status. Two
// milliseconds is a dashboard refreshing, and short next to any session.
const pollEvery = 2 * time.Millisecond

// runJob submits a job over HTTP, polls its status until it is terminal and
// fetches the result, as a caller of the service would.
func (s *server) runJob(spec service.JobSpec) (*service.JobResult, string, error) {
	id, err := s.target.Submit(spec)
	if err != nil {
		return nil, "", fmt.Errorf("submit: %w", err)
	}
	for {
		st, err := s.target.Status(id)
		if err != nil {
			return nil, id, fmt.Errorf("status %s: %w", id, err)
		}
		if st.State.Terminal() {
			if st.State != service.StateSucceeded {
				return nil, id, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
			}
			break
		}
		time.Sleep(pollEvery)
	}
	res, err := s.target.Result(id)
	if err != nil {
		return nil, id, fmt.Errorf("result %s: %w", id, err)
	}
	if s.rec.on() {
		s.recordJob(id)
	}
	return res, id, nil
}

// recordJob adds the spans only the service knows: the job's wait in the
// queue, its session, and the program's own phase spans inside it.
func (s *server) recordJob(id string) {
	st, err := s.svc.Status(id)
	if err != nil || st.Started == nil || st.Finished == nil {
		return
	}
	s.rec.add("service.queue", st.Submitted, *st.Started, 0)
	s.rec.add("service.session", *st.Started, *st.Finished, 0)
	if spans, err := s.svc.Trace(id); err == nil {
		// The job's timeline is created right after Started is stamped.
		s.rec.addTimeline(*st.Started, spans)
	}
}

// checkSession applies the output checks every tuning session must pass.
func checkSession(res *service.JobResult) []string {
	var fails []string
	if !(res.TunedSec > 0 && res.TunedSec <= res.DefaultSec) {
		fails = append(fails, fmt.Sprintf("tuned %.3f s is not within (0, default %.3f s]", res.TunedSec, res.DefaultSec))
	}
	if res.Degraded != "" {
		fails = append(fails, "degraded: "+res.Degraded)
	}
	return fails
}

// sessionDigest renders a session's outputs exactly.
func sessionDigest(params map[string]float64, tunedSec, clusterSec float64) string {
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%v;", n, params[n])
	}
	fmt.Fprintf(&b, "tuned=%v;cluster=%v", tunedSec, clusterSec)
	return b.String()
}

// sessionResult turns a finished service job into an opResult.
func sessionResult(res *service.JobResult, err error) opResult {
	if err != nil {
		return opResult{sessions: 1, failures: []string{err.Error()}}
	}
	return opResult{
		sessions: 1, clusterSec: res.ClusterSec,
		speedups: []float64{res.DefaultSec / res.TunedSec},
		digest:   sessionDigest(res.BestParams, res.TunedSec, res.ClusterSec),
		failures: checkSession(res),
	}
}

// checkRecommendation applies the output checks of a recommendation served
// from the seeded store: a hit, with provenance, inside the knob space.
func checkRecommendation(rec *service.Recommendation, space *conf.Space) []string {
	var fails []string
	if rec.Outcome != "hit" {
		fails = append(fails, fmt.Sprintf("outcome %q, want hit (confidence %.2f)", rec.Outcome, rec.Confidence))
	}
	if len(rec.Neighbors) == 0 {
		fails = append(fails, "no neighbours")
	}
	if len(rec.BestConfig) != space.Dim() {
		return append(fails, "no configuration")
	}
	if err := space.Validate(rec.BestConfig); err != nil {
		fails = append(fails, "configuration outside the space: "+err.Error())
	}
	return fails
}
