package runner

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"locat/internal/conf"
)

// ErrBreakerOpen is the sticky failure a tripped circuit breaker reports
// (wrapped with the last run error); BackendErr surfaces it to session
// drivers between iterations.
var ErrBreakerOpen = errors.New("runner: circuit breaker open")

// The retry policy: 3 attempts per run, exponential backoff from 100 ms
// (so at most 200 ms before the last attempt), and a circuit breaker that
// trips after 5 consecutive runs whose attempts were all exhausted. Once
// open, every run short-circuits to a zero result and Err reports
// ErrBreakerOpen — the sticky-Faulty signal the degradation path acts on.
const (
	retryAttempts    = 3
	retryBaseDelay   = 100 * time.Millisecond
	breakerThreshold = 5
)

// RetryOptions configure a Retrying wrapper's jitter, clock and hooks.
type RetryOptions struct {
	// Seed drives the deterministic backoff jitter.
	Seed int64
	// Sleep, if non-nil, replaces time.Sleep between attempts — the
	// injectable clock that keeps tests instant and the wallclock analyzer
	// appeased outside the exemption list.
	Sleep func(time.Duration)
	// OnRetry, if non-nil, is called once per retried attempt (metrics).
	OnRetry func()
	// OnBreakerOpen, if non-nil, is called once when the breaker trips.
	OnBreakerOpen func()
}

// Retrying wraps a Chaos backend with bounded retries and a circuit
// breaker. Dropped attempts are retried with exponential backoff and
// deterministic jitter — the delay is a pure function of (seed, run index,
// attempt), so a retried session sleeps identically every time and stays
// reproducible. Sticky failures are not retried. After breakerThreshold
// consecutive runs fail all their attempts the breaker opens: every further
// run short-circuits without touching the backend and Err reports
// ErrBreakerOpen, which session drivers consult between iterations to stop
// cleanly and degrade.
type Retrying struct {
	forward
	chaos *Chaos
	opts  RetryOptions

	mu          sync.Mutex
	consecutive int
	breakerErr  error
}

// NewRetrying wraps inner with the retry policy and the hooks of opts.
func NewRetrying(inner *Chaos, opts RetryOptions) *Retrying {
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	return &Retrying{forward: forward{inner}, chaos: inner, opts: opts}
}

// backoff returns the pre-attempt delay: exponential in the attempt number,
// scaled by a deterministic jitter factor in [0.5, 1) derived from
// (seed, idx, attempt) — the same splitmix64 schedule chaos uses, so
// replayed sessions back off identically.
func (r *Retrying) backoff(idx uint64, attempt int) time.Duration {
	jitter := 0.5 + 0.5*chaosUnit(r.opts.Seed, idx, attempt, 3)
	return time.Duration(float64(retryBaseDelay<<(attempt-1)) * jitter)
}

// open reports whether the breaker has tripped.
func (r *Retrying) open() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.breakerErr != nil
}

// noteRun feeds one run outcome into the breaker: successes reset the
// consecutive-failure count, failures advance it and trip the breaker at
// the threshold.
func (r *Retrying) noteRun(err error) {
	r.mu.Lock()
	if err == nil {
		r.consecutive = 0
		r.mu.Unlock()
		return
	}
	r.consecutive++
	trip := r.consecutive >= breakerThreshold && r.breakerErr == nil
	if trip {
		r.breakerErr = fmt.Errorf("%w after %d consecutive failed runs: %v",
			ErrBreakerOpen, r.consecutive, err)
	}
	r.mu.Unlock()
	if trip && r.opts.OnBreakerOpen != nil {
		r.opts.OnBreakerOpen()
	}
}

// RunApp claims the next index and executes it with retries.
func (r *Retrying) RunApp(app *Application, c conf.Config, dataGB float64) AppResult {
	return r.RunAppAt(r.inner.ReserveRuns(1), app, c, dataGB, nil)
}

// RunAppAt executes run idx with retries — the package's one retry loop;
// it returns a zero result for runs that exhaust their attempts (the Runner
// contract: failed runs report zero). The deterministic backoff jitter
// keeps chaotic-but-deterministic inner backends deterministic through the
// retry layer.
func (r *Retrying) RunAppAt(idx uint64, app *Application, c conf.Config, dataGB float64, into []QueryResult) AppResult {
	if r.open() {
		return AppResult{}
	}
	for attempt := 1; ; attempt++ {
		res, err := r.chaos.tryRunAppAt(idx, app, c, dataGB, into)
		if err == nil {
			r.noteRun(nil)
			return res
		}
		if _, drop := err.(*errChaosDrop); !drop || attempt == retryAttempts {
			r.noteRun(err)
			return AppResult{}
		}
		r.opts.Sleep(r.backoff(idx, attempt))
		if r.opts.OnRetry != nil {
			r.opts.OnRetry()
		}
	}
}

// Err reports the tripped breaker, or the inner backend's sticky failure.
func (r *Retrying) Err() error {
	r.mu.Lock()
	err := r.breakerErr
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return r.forward.Err()
}

var (
	_ Runner = (*Retrying)(nil)
	_ Faulty = (*Retrying)(nil)
)
