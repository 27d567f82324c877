package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// maxRequestBody caps POST bodies (a JobSpec is a few hundred bytes; 1 MiB
// leaves generous headroom). Without the cap a single oversized request
// would be buffered wholesale by the JSON decoder.
const maxRequestBody = 1 << 20

// defaultPageLimit and maxPageLimit bound list responses: a long-lived
// service accumulates unbounded jobs/history, so GET /v1/jobs and
// GET /v1/history window their (deterministically ordered) results with
// limit/offset query parameters.
const (
	defaultPageLimit = 500
	maxPageLimit     = 5000
)

// HistorySummary is the compact per-entry view of the history endpoints.
type HistorySummary struct {
	Key         string  `json:"key"`
	JobID       string  `json:"job_id"`
	CreatedUnix int64   `json:"created_unix"`
	TargetGB    float64 `json:"target_gb"`
	TunedSec    float64 `json:"tuned_sec"`
	OverheadSec float64 `json:"overhead_sec"`
	Obs         int     `json:"obs"`
}

// History returns one summary per stored entry, grouped by key order.
func (s *Service) History() ([]HistorySummary, error) {
	keys, err := s.store.Keys()
	if err != nil {
		return nil, err
	}
	var out []HistorySummary
	for _, k := range keys {
		entries, err := s.store.Get(k)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			out = append(out, HistorySummary{
				Key:         k,
				JobID:       e.JobID,
				CreatedUnix: e.CreatedUnix,
				TargetGB:    e.TargetGB,
				TunedSec:    e.TunedSec,
				OverheadSec: e.OverheadSec,
				Obs:         len(e.Obs),
			})
		}
	}
	return out, nil
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs           submit a JobSpec, returns {"id": ...}
//	                          (422 invalid spec, 429 queue full, 503 closing)
//	POST   /v1/recommend      zero-execution recommendation from the history
//	                          store (synchronous; k-NN over past sessions)
//	GET    /v1/jobs           list job statuses (limit/offset pagination,
//	                          optional state= filter, X-Total-Count header)
//	GET    /v1/jobs/{id}      one job's status (result embedded when done)
//	GET    /v1/jobs/{id}/result  the finished job's full result (409 while running)
//	GET    /v1/jobs/{id}/conf    the tuned spark-defaults.conf as text/plain
//	DELETE /v1/jobs/{id}      request cancellation
//	GET    /v1/jobs/{id}/trace   the job's phase-span timeline
//	GET    /v1/history        history-store summaries (limit/offset pagination)
//	GET    /v1/history/{key}  full entries under one fingerprint key
//	GET    /healthz           liveness + job census by state
//	GET    /readyz            readiness: 503 during startup resume and drain
//	GET    /metrics           Prometheus text exposition
//
// Errors are a uniform envelope {"error":{"code":...,"message":...}} with a
// stable machine-readable code; POST bodies must be application/json (415
// otherwise). 429 responses (full queue, over-budget tenant) carry a
// Retry-After header. Every request is timed into per-route latency
// histograms and counted by route and status code; when the service has a
// logger, an access log line is emitted per request (suppressed along with
// everything else when Logf is nil).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if !decodeJSON(w, r, &spec) {
			return
		}
		id, err := s.Submit(spec)
		if err != nil {
			submitError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": string(StateQueued)})
	})

	mux.HandleFunc("POST /v1/recommend", func(w http.ResponseWriter, r *http.Request) {
		var req RecommendRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		rec, err := s.Recommend(req)
		if err != nil {
			submitError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		limit, offset, err := listWindow(r)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		jobs := s.Jobs() // submission order: deterministic
		if v := r.URL.Query().Get("state"); v != "" {
			st := State(v)
			if st.info().state != st {
				httpError(w, http.StatusUnprocessableEntity,
					fmt.Errorf("unknown state %q", v))
				return
			}
			jobs = slices.DeleteFunc(jobs, func(j JobStatus) bool { return j.State != st })
		}
		writeJSON(w, http.StatusOK, window(w, jobs, limit, offset))
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		if !st.State.Terminal() {
			httpError(w, http.StatusConflict,
				fmt.Errorf("job %s is %s; result not ready", st.ID, st.State))
			return
		}
		if st.State != StateSucceeded {
			httpError(w, http.StatusGone,
				fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error))
			return
		}
		writeJSON(w, http.StatusOK, apiResult{Schema: resultSchema, JobResult: st.Result})
	})

	mux.HandleFunc("GET /v1/jobs/{id}/conf", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		if st.State != StateSucceeded {
			httpError(w, http.StatusConflict,
				fmt.Errorf("job %s is %s; no tuned configuration", st.ID, st.State))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, st.Result.SparkConf)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"state": "cancelling"})
	})

	mux.HandleFunc("GET /v1/history", func(w http.ResponseWriter, r *http.Request) {
		limit, offset, err := listWindow(r)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		sums, err := s.History() // sorted by key, oldest-first within a key
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, window(w, sums, limit, offset))
	})

	mux.HandleFunc("GET /v1/history/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !ValidKey(key) {
			httpError(w, http.StatusBadRequest, errors.New("invalid history key"))
			return
		}
		entries, err := s.store.Get(key)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		if len(entries) == 0 {
			httpError(w, http.StatusNotFound, fmt.Errorf("no history under %q", key))
			return
		}
		writeJSON(w, http.StatusOK, entries)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		spans, err := s.Trace(id)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		st, err := s.Status(id)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"id": id, "state": st.State, "spans": spans,
		})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		census := s.Stats()
		body := map[string]any{"status": "ok", "finished": census.Finished()}
		for _, l := range lifecycle {
			body[string(l.state)] = *l.count(&census)
		}
		writeJSON(w, http.StatusOK, body)
	})

	// Readiness is distinct from liveness: a draining or still-resuming
	// service is alive (healthz 200) but must not receive new traffic
	// (readyz 503) — the signal load balancers act on during a rollout.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.cfg.Metrics.WritePrometheus(w)
	})

	return s.instrument(mux)
}

// writeJSON writes v as the response body, indented by one space, in one
// Write. The encoder and its buffer are reused from one response to the next.
// A value that fails to encode leaves the buffer empty, so the response has
// its status and no body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	e := jsonEncoders.Get().(*jsonEncoder)
	e.buf.Reset()
	_ = e.enc.Encode(v)
	_, _ = w.Write(e.buf.Bytes()) // a client gone away has no one to tell
	jsonEncoders.Put(e)
}

// jsonEncoder is a response encoder: an indenting json.Encoder on its buffer.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// jsonEncoders holds the response encoders writeJSON reuses.
var jsonEncoders = sync.Pool{New: func() any {
	e := new(jsonEncoder)
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", " ")
	return e
}}

// apiError is the uniform error envelope of every /v1 endpoint:
// {"error":{"code":"...","message":"..."}}. The code is a stable
// machine-readable slug derived from the status, so clients branch on it
// instead of parsing messages.
type apiError struct {
	Error apiErrorBody `json:"error"`
}

type apiErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorCode maps a status to its envelope code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusGone:
		return "gone"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusUnsupportedMediaType:
		return "unsupported_media_type"
	case http.StatusUnprocessableEntity:
		return "invalid_spec"
	case http.StatusTooManyRequests:
		return "queue_full"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: apiErrorBody{Code: errorCode(code), Message: err.Error()}})
}

// httpErrorCoded is httpError with an explicit envelope code, for statuses
// whose default slug is too coarse (the two flavors of 429).
func httpErrorCoded(w http.ResponseWriter, code int, slug string, err error) {
	writeJSON(w, code, apiError{Error: apiErrorBody{Code: slug, Message: err.Error()}})
}

// submitError maps a Submit/Recommend refusal onto the wire. Admission
// refusals are back-pressure, not client mistakes: both 429 flavors carry a
// Retry-After header (the budget's own refill estimate when it has one, a
// nominal second otherwise), a closing service is 503, and everything else
// is a semantically invalid spec (422).
func submitError(w http.ResponseWriter, err error) {
	var be *BudgetError
	switch {
	case errors.As(err, &be):
		retry := int64(1)
		if s := int64(be.RetryAfter.Seconds() + 0.999); s > retry {
			retry = s
		}
		w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
		httpErrorCoded(w, http.StatusTooManyRequests, "over_budget", err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err)
	default:
		httpError(w, http.StatusUnprocessableEntity, err)
	}
}

// decodeJSON enforces the POST contract: a JSON content type (415
// otherwise; an absent Content-Type is tolerated), a bounded body (413 past
// maxRequestBody) and well-formed JSON (400). It writes the error response
// itself and reports whether the handler may proceed.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, _ := strings.Cut(ct, ";")
		if mt = strings.TrimSpace(strings.ToLower(mt)); mt != "application/json" {
			httpError(w, http.StatusUnsupportedMediaType,
				fmt.Errorf("content type %q not supported; send application/json", ct))
			return false
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// listWindow parses the limit/offset pagination parameters (422 on
// malformed or out-of-range values, written by the caller).
func listWindow(r *http.Request) (limit, offset int, err error) {
	limit = defaultPageLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 1 || limit > maxPageLimit {
			return 0, 0, fmt.Errorf("limit must be an integer in [1, %d]", maxPageLimit)
		}
	}
	if v := r.URL.Query().Get("offset"); v != "" {
		offset, err = strconv.Atoi(v)
		if err != nil || offset < 0 {
			return 0, 0, errors.New("offset must be a non-negative integer")
		}
	}
	return limit, offset, nil
}

// window applies the pagination window to a deterministically ordered list
// and stamps the pre-window total into the X-Total-Count header.
func window[T any](w http.ResponseWriter, list []T, limit, offset int) []T {
	w.Header().Set("X-Total-Count", strconv.Itoa(len(list)))
	if offset >= len(list) {
		return []T{}
	}
	list = list[offset:]
	if len(list) > limit {
		list = list[:limit]
	}
	return list
}

// resultSchema versions the apiResult wire shape.
const resultSchema = 1

// apiResult is the versioned wire shape of GET /v1/jobs/{id}/result: the
// JobResult as GET /v1/jobs/{id} embeds it, behind a Schema field that
// announces the shape's version to clients. JobResult's JSON tags are the
// contract of both endpoints.
type apiResult struct {
	Schema int `json:"schema"`
	*JobResult
}
