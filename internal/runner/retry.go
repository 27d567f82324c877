package runner

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"locat/internal/conf"
)

// TryRunner is the per-run error surface fault-aware backends expose on top
// of Runner — the package's one error-returning primitive: the same
// executions, but with the failure visible per attempt instead of collapsed
// into a zero result. Chaos implements it; Retrying consumes it to know
// when (and whether) to retry.
type TryRunner interface {
	TryRunAppAt(idx uint64, app *Application, c conf.Config, dataGB float64) (AppResult, error)
}

// TransientError marks an error as transient: worth retrying with backoff.
// Chaos drops implement it; network timeouts classify transient without it.
type TransientError interface {
	Transient() bool
}

// IsTransient classifies an execution error: true for errors marking
// themselves transient (TransientError) and for network timeouts; false for
// everything else (sticky backend failures, protocol errors), which retrying
// cannot heal.
func IsTransient(err error) bool {
	var te TransientError
	if errors.As(err, &te) {
		return te.Transient()
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return ne.Timeout()
	}
	return false
}

// ErrBreakerOpen is the sticky failure a tripped circuit breaker reports
// (wrapped with the last run error); BackendErr surfaces it to session
// drivers between iterations.
var ErrBreakerOpen = errors.New("runner: circuit breaker open")

// RetryOptions configure a Retrying wrapper. The zero value retries up to
// 3 attempts with 100ms–2s backoff and trips the breaker after 5
// consecutive failed runs.
type RetryOptions struct {
	// MaxAttempts is the total tries per run, including the first
	// (default 3).
	MaxAttempts int
	// BaseDelay and MaxDelay bound the capped exponential backoff between
	// attempts (defaults 100ms and 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// BreakerThreshold trips the circuit breaker after that many
	// consecutive runs whose attempts were all exhausted (default 5). Once
	// open, every run short-circuits to a zero result and Err reports
	// ErrBreakerOpen — the sticky-Faulty signal the degradation path acts
	// on.
	BreakerThreshold int
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

// Retrying wraps a fault-aware backend with bounded retries and a circuit
// breaker. Transient per-run failures (chaos drops, network timeouts) are
// retried with capped exponential backoff and deterministic jitter — the
// delay is a pure function of (seed, run index, attempt), so a retried
// session sleeps identically every time and stays reproducible. Sticky
// failures are not retried. After BreakerThreshold consecutive runs fail
// all their attempts the breaker opens: every further run short-circuits
// without touching the backend and Err reports ErrBreakerOpen, which
// session drivers consult between iterations to stop cleanly and degrade.
//
// Inner backends without the TryRunner error surface cannot signal per-run
// failure, so Retrying forwards their runs untouched (the breaker then only
// relays the inner backend's sticky Faulty state).
type Retrying struct {
	forward
	try  TryRunner // nil when inner has no per-run error surface
	opts RetryOptions

	mu          sync.Mutex
	consecutive int
	breakerErr  error
}

// NewRetrying wraps inner with the retry policy of opts.
func NewRetrying(inner Runner, opts RetryOptions) *Retrying {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = 100 * time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 2 * time.Second
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 5
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	try, _ := inner.(TryRunner)
	return &Retrying{forward: forward{inner, "retry"}, try: try, opts: opts}
}

// backoff returns the pre-attempt delay: capped exponential in the attempt
// number, scaled by a deterministic jitter factor in [0.5, 1) derived from
// (seed, idx, attempt) — the same splitmix64 schedule chaos uses, so
// replayed sessions back off identically.
func (r *Retrying) backoff(idx uint64, attempt int) time.Duration {
	d := r.opts.BaseDelay << (attempt - 1)
	if d > r.opts.MaxDelay || d <= 0 {
		d = r.opts.MaxDelay
	}
	jitter := 0.5 + 0.5*chaosUnit(r.opts.Seed, idx, attempt, 3)
	return time.Duration(float64(d) * jitter)
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
	trip := r.consecutive >= r.opts.BreakerThreshold && r.breakerErr == nil
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
	return r.RunAppAt(r.inner.ReserveRuns(1), app, c, dataGB)
}

// RunAppAt executes run idx with retries — the package's one retry loop;
// it returns a zero result for runs that exhaust their attempts (the Runner
// contract: failed runs report zero). The deterministic backoff jitter
// keeps chaotic-but-deterministic inner backends deterministic through the
// retry layer.
func (r *Retrying) RunAppAt(idx uint64, app *Application, c conf.Config, dataGB float64) AppResult {
	if r.try == nil {
		return r.inner.RunAppAt(idx, app, c, dataGB)
	}
	if r.open() {
		return AppResult{}
	}
	var lastErr error
	for attempt := 0; attempt < r.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.opts.Sleep(r.backoff(idx, attempt))
			if r.opts.OnRetry != nil {
				r.opts.OnRetry()
			}
		}
		res, err := r.try.TryRunAppAt(idx, app, c, dataGB)
		if err == nil {
			r.noteRun(nil)
			return res
		}
		lastErr = err
		if !IsTransient(err) {
			break
		}
	}
	r.noteRun(lastErr)
	return AppResult{}
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
	_ Runner   = (*Retrying)(nil)
	_ Reporter = (*Retrying)(nil)
	_ Faulty   = (*Retrying)(nil)
)
