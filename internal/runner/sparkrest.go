package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locat/internal/conf"
)

// SparkRest executes applications by submitting them to a Spark
// cluster-manager HTTP endpoint and parsing event-log-shaped responses —
// the production path of the paper's setting, where every sample is a real
// spark-submit against a live cluster.
//
// The wire protocol is deliberately minimal and mirrors what a thin
// gateway in front of spark-submit / the Spark REST submission API
// exposes: POST {base}/v1/submissions with the application identity, the
// input size and the full tuned property set rendered exactly as
// spark-defaults.conf would carry it; the response reduces a Spark event
// log to per-query durations, GC time, shuffle and spill volumes. The
// backend is unit-tested against net/http/httptest so the request
// construction and response parsing are exercised without a cluster.
//
// HTTP transport or decode failures are sticky: the failed run reports a
// zero result, Err returns the first error, and every later run
// short-circuits without hitting the gateway. Session drivers (the locat
// facade, the tuning service) check BackendErr after tuning and fail the
// session, so a run against a dead cluster cannot be mistaken for a
// result.
type SparkRest struct {
	base   string
	space  *conf.Space
	client *http.Client

	runs atomic.Uint64

	mu  sync.Mutex
	err error
}

// NewSparkRest returns a backend submitting to the gateway at base
// (e.g. "http://spark-gateway:6066").
func NewSparkRest(base string, space *conf.Space) *SparkRest {
	return &SparkRest{
		base:   strings.TrimRight(base, "/"),
		space:  space,
		client: &http.Client{Timeout: 10 * time.Minute},
	}
}

// submission is the POST body: the application identity plus the candidate
// configuration rendered as Spark properties.
type submission struct {
	// AppName and Queries identify what to run (a query subset encodes the
	// reduced query application).
	AppName string   `json:"app_name"`
	Queries []string `json:"queries"`
	// DataGB is the input scale factor.
	DataGB float64 `json:"data_gb"`
	// SparkProperties carries the full tuned configuration in
	// spark-defaults.conf value syntax ("8g", "200", "true", …).
	SparkProperties map[string]string `json:"spark_properties"`
	// Noiseless requests a deterministic model-based estimate instead of a
	// measured run, when the gateway offers one (validation runs).
	Noiseless bool `json:"noiseless,omitempty"`
}

// eventLogQuery is one query's reduction of the Spark event log.
type eventLogQuery struct {
	Name             string  `json:"name"`
	DurationMS       int64   `json:"duration_ms"`
	GCTimeMS         int64   `json:"gc_time_ms"`
	ShuffleWriteByte int64   `json:"shuffle_write_bytes"`
	SpillBytes       int64   `json:"spill_bytes"`
	PeakMemRatio     float64 `json:"peak_mem_ratio"`
}

// eventLogResponse is the gateway's event-log-shaped reply.
type eventLogResponse struct {
	AppID      string          `json:"app_id"`
	DurationMS int64           `json:"duration_ms"`
	GCTimeMS   int64           `json:"gc_time_ms"`
	Queries    []eventLogQuery `json:"queries"`
}

// Payload renders the submission body for (app, c, dataGB) — exposed so
// operators can inspect exactly what would hit the cluster (and tests can
// assert the mapping).
func (s *SparkRest) Payload(app *Application, c conf.Config, dataGB float64, noiseless bool) ([]byte, error) {
	props, err := SparkProperties(c)
	if err != nil {
		return nil, err
	}
	return json.Marshal(submission{
		AppName:         app.Name,
		Queries:         app.QueryNames(),
		DataGB:          dataGB,
		SparkProperties: props,
		Noiseless:       noiseless,
	})
}

// SparkProperties renders a configuration as the property→value map a
// spark-submit would receive, using the same value syntax as
// conf.FormatSparkConf (unit suffixes on sized parameters, true/false on
// switches).
func SparkProperties(c conf.Config) (map[string]string, error) {
	var b strings.Builder
	if err := conf.FormatSparkConf(&b, c); err != nil {
		return nil, err
	}
	out := make(map[string]string, conf.NumParams)
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 {
			out[fields[0]] = fields[1]
		}
	}
	return out, nil
}

// Err returns the first transport/decode error, or nil. A backend with a
// sticky error returns zero results from every run.
func (s *SparkRest) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// fail records the first error.
func (s *SparkRest) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// maxParallel caps concurrent submissions (cluster queue slots); the batch
// pool clamps its workers to it.
func (s *SparkRest) maxParallel() int { return 4 }

// Space returns the configuration space submissions are validated against.
func (s *SparkRest) Space() *conf.Space { return s.space }

// ReserveRuns claims submission sequence numbers.
func (s *SparkRest) ReserveRuns(n int) uint64 {
	if n <= 0 {
		panic("runner: ReserveRuns of non-positive count")
	}
	return s.runs.Add(uint64(n)) - uint64(n)
}

// submit POSTs one submission and parses the event-log reply, its
// per-query results into into[:0].
func (s *SparkRest) submit(app *Application, c conf.Config, dataGB float64, noiseless bool, into []QueryResult) (AppResult, error) {
	if err := s.Err(); err != nil {
		return AppResult{}, err
	}
	body, err := s.Payload(app, c, dataGB, noiseless)
	if err != nil {
		return AppResult{}, err
	}
	resp, err := s.client.Post(s.base+"/v1/submissions", "application/json", bytes.NewReader(body))
	if err != nil {
		return AppResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return AppResult{}, fmt.Errorf("runner: sparkrest submission failed: %s", resp.Status)
	}
	var ev eventLogResponse
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		return AppResult{}, fmt.Errorf("runner: sparkrest bad event-log response: %w", err)
	}
	return eventLogToResult(&ev, into), nil
}

// eventLogToResult reduces the event-log reply to the tuner's result model
// (milliseconds → seconds, bytes → MB), appending the per-query results to
// into[:0] (nil allocates them).
func eventLogToResult(ev *eventLogResponse, into []QueryResult) AppResult {
	if into == nil {
		into = make([]QueryResult, 0, len(ev.Queries))
	}
	out := AppResult{
		Sec:     float64(ev.DurationMS) / 1000,
		GCSec:   float64(ev.GCTimeMS) / 1000,
		Queries: into[:0],
	}
	var qSec, qGC float64
	for _, q := range ev.Queries {
		qr := QueryResult{
			Name:        q.Name,
			Sec:         float64(q.DurationMS) / 1000,
			GCSec:       float64(q.GCTimeMS) / 1000,
			ShuffleMB:   float64(q.ShuffleWriteByte) / (1 << 20),
			SpillMB:     float64(q.SpillBytes) / (1 << 20),
			MaxPressure: q.PeakMemRatio,
		}
		qSec += qr.Sec
		qGC += qr.GCSec
		out.Queries = append(out.Queries, qr)
	}
	// Gateways that omit app-level totals get them from the query sum.
	if out.Sec == 0 {
		out.Sec = qSec
	}
	if out.GCSec == 0 {
		out.GCSec = qGC
	}
	return out
}

// RunApp submits one application execution.
func (s *SparkRest) RunApp(app *Application, c conf.Config, dataGB float64) AppResult {
	return s.RunAppAt(s.ReserveRuns(1), app, c, dataGB, nil)
}

// RunAppAt submits one application execution (the index is an opaque
// sequence number on a live cluster).
func (s *SparkRest) RunAppAt(_ uint64, app *Application, c conf.Config, dataGB float64, into []QueryResult) AppResult {
	res, err := s.submit(app, c, dataGB, false, into)
	if err != nil {
		s.fail(err)
		return AppResult{}
	}
	return res
}

// NoiselessAppTime requests the gateway's deterministic estimate (a
// model-based dry run; gateways without one execute a validation run).
func (s *SparkRest) NoiselessAppTime(app *Application, c conf.Config, dataGB float64) float64 {
	res, err := s.submit(app, c, dataGB, true, nil)
	if err != nil {
		s.fail(err)
		return 0
	}
	return res.Sec
}

var _ Runner = (*SparkRest)(nil)
