package runner

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"locat/internal/conf"
)

// Chaos is a deterministic fault-injection wrapper: it drops, delays or
// permanently fails executions of an inner backend on a schedule that is a
// pure function of (seed, run index, attempt number), derived by the same
// splitmix64 mix the simulator uses for per-run noise streams. Because the
// schedule depends only on the run index — never on wall time, goroutine
// interleaving or call order — a chaotic session is exactly as reproducible
// as a fault-free one: the batch pool assigns the same indices regardless
// of worker count, so the same runs fail in the same ways every time.
//
// Dropped attempts never touch the inner backend. That matters for replay
// fixtures: a replaying Cache consumes one trace entry per served
// execution, so a fault layered on top must fail without performing the
// lookup — the
// retry's eventually-successful attempt then consumes the entry exactly
// once and the replayed trajectory stays bit-identical to the fault-free
// run.
//
// Like every decorator but Observed, Chaos masks the inner backend's native
// batch so every run is individually addressable by index — faults are
// per-index, so every run must route through RunAppAt. Wrap it in Retrying
// to heal transient drops, and in Observed to meter only what executed.
//
// NoiselessAppTime is never faulted: deterministic evaluations model no
// execution, and the degradation guardrail depends on them to compare a
// best-observed configuration against the default even after the chaotic
// backend died.
type Chaos struct {
	forward
	opts ChaosOptions

	mu       sync.Mutex
	attempts map[uint64]int // per-index attempt counters
	executed int            // successful executions forwarded to inner
	err      error          // sticky failure once FailAfter trips
}

// ChaosOptions configure the fault schedule. The zero value injects no
// faults.
type ChaosOptions struct {
	// DropRate is the probability that a run's k-th attempt fails without
	// executing (decided per (Seed, index, attempt); 0 disables drops).
	DropRate float64
	// MaxConsecutive caps the failed attempts any single run can suffer
	// (default 2), so a retry policy with more attempts than this is
	// guaranteed to heal every drop — the property the chaos determinism
	// e2e pins.
	MaxConsecutive int
	// DelayRate is the probability a successful attempt is delayed by Delay
	// before executing (0 disables delays).
	DelayRate float64
	// Delay is the injected latency of a delayed attempt.
	Delay time.Duration
	// FailAfter, when positive, turns the backend permanently faulty after
	// that many successful executions: later runs fail sticky (Err reports
	// the failure, results are zero) — the mid-session backend death the
	// degradation path handles.
	FailAfter int
	// KillAfter, when positive, panics after that many successful
	// executions — a process crash for checkpoint/resume tests.
	KillAfter int
	// Seed drives the fault schedule.
	Seed int64
	// Sleep, if non-nil, replaces time.Sleep for injected delays (tests
	// substitute a recorder; the default sleeps for real).
	Sleep func(time.Duration)
}

// ErrChaosFailed is the sticky failure a FailAfter trip reports.
var ErrChaosFailed = errors.New("runner: chaos backend failure injected")

// errChaosDrop is the per-attempt failure of a dropped run, the one fault
// Retrying retries.
type errChaosDrop struct {
	idx     uint64
	attempt int
}

func (e *errChaosDrop) Error() string {
	return fmt.Sprintf("runner: chaos dropped run %d (attempt %d)", e.idx, e.attempt)
}

// ParseChaosSpec parses the one-string chaos surface the CLI flags accept,
// a comma-separated list of knobs mirroring the -backend spec style:
//
//	drop=0.3            per-attempt drop probability
//	maxfail=2           max consecutive failed attempts per run
//	delay=0.1           per-attempt delay probability
//	delayms=50          injected delay in milliseconds
//	failafter=40        sticky backend failure after 40 executions
//	killafter=25        panic (simulated crash) after 25 executions
//	seed=7              fault-schedule seed
//
// The empty spec returns nil options: no chaos wrapper at all.
func ParseChaosSpec(spec string) (*ChaosOptions, error) {
	if spec == "" {
		return nil, nil
	}
	o := &ChaosOptions{}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("runner: chaos spec %q: %q is not key=value", spec, part)
		}
		bad := func() error {
			return fmt.Errorf("runner: chaos spec %q: bad value %q for %s", spec, v, k)
		}
		switch k {
		case "drop", "delay":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f >= 0 && f <= 1) { // also rejects NaN
				return nil, bad()
			}
			if k == "drop" {
				o.DropRate = f
			} else {
				o.DelayRate = f
			}
		case "maxfail", "failafter", "killafter", "delayms":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 || (k == "delayms" && int64(n) > math.MaxInt64/int64(time.Millisecond)) {
				return nil, bad()
			}
			switch k {
			case "maxfail":
				o.MaxConsecutive = n
			case "failafter":
				o.FailAfter = n
			case "killafter":
				o.KillAfter = n
			case "delayms":
				o.Delay = time.Duration(n) * time.Millisecond
			}
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, bad()
			}
			o.Seed = n
		default:
			return nil, fmt.Errorf("runner: chaos spec %q: unknown knob %q (want drop, maxfail, delay, delayms, failafter, killafter, seed)", spec, k)
		}
	}
	return o, nil
}

// NewChaos wraps inner with the fault schedule of opts.
func NewChaos(inner Runner, opts ChaosOptions) *Chaos {
	if opts.MaxConsecutive <= 0 {
		opts.MaxConsecutive = 2
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	return &Chaos{forward: forward{inner}, opts: opts, attempts: map[uint64]int{}}
}

// chaosMix is the splitmix64 finalizer (the simulator's runSeed pattern),
// mapping (seed, idx, attempt) to a decorrelated uint64.
func chaosMix(seed int64, idx uint64, attempt int) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(idx+1) + 0xbf58476d1ce4e5b9*uint64(attempt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chaosUnit maps the mix onto [0, 1).
func chaosUnit(seed int64, idx uint64, attempt int, salt uint64) float64 {
	return float64(chaosMix(seed^int64(salt*0x9e3779b9), idx, attempt)>>11) / (1 << 53)
}

// step resolves one attempt at run index idx: a transient drop error, a
// sticky failure, or clearance to execute (after any injected delay).
// The attempt counter is per index, so the decision sequence of a run is
// identical no matter which worker retries it or when.
func (c *Chaos) step(idx uint64) error {
	c.mu.Lock()
	attempt := c.attempts[idx]
	c.attempts[idx] = attempt + 1
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.mu.Unlock()
	if c.opts.DropRate > 0 && attempt < c.opts.MaxConsecutive &&
		chaosUnit(c.opts.Seed, idx, attempt, 1) < c.opts.DropRate {
		return &errChaosDrop{idx: idx, attempt: attempt}
	}
	if c.opts.DelayRate > 0 && c.opts.Delay > 0 &&
		chaosUnit(c.opts.Seed, idx, attempt, 2) < c.opts.DelayRate {
		c.opts.Sleep(c.opts.Delay)
	}
	return nil
}

// noteExecuted advances the execution counter and arms FailAfter/KillAfter.
func (c *Chaos) noteExecuted() {
	c.mu.Lock()
	c.executed++
	n := c.executed
	if c.opts.FailAfter > 0 && n >= c.opts.FailAfter && c.err == nil {
		c.err = fmt.Errorf("%w (after %d runs)", ErrChaosFailed, n)
	}
	c.mu.Unlock()
	if c.opts.KillAfter > 0 && n >= c.opts.KillAfter {
		panic(fmt.Sprintf("runner: chaos kill injected after %d runs", n))
	}
}

// tryRunAppAt executes run idx unless the schedule faults it, reporting the
// fault as an error (an *errChaosDrop for drops, sticky after FailAfter).
func (c *Chaos) tryRunAppAt(idx uint64, app *Application, cf conf.Config, dataGB float64, into []QueryResult) (res AppResult, err error) {
	if err = c.step(idx); err == nil {
		res = c.inner.RunAppAt(idx, app, cf, dataGB, into)
		c.noteExecuted()
	}
	return res, err
}

// RunApp claims the next index and executes it through the fault schedule;
// faulted runs report a zero result.
func (c *Chaos) RunApp(app *Application, cf conf.Config, dataGB float64) AppResult {
	return c.RunAppAt(c.inner.ReserveRuns(1), app, cf, dataGB, nil)
}

// RunAppAt executes run idx; faulted runs report a zero result.
func (c *Chaos) RunAppAt(idx uint64, app *Application, cf conf.Config, dataGB float64, into []QueryResult) AppResult {
	res, _ := c.tryRunAppAt(idx, app, cf, dataGB, into)
	return res
}

// Err reports the sticky injected failure, or the inner backend's.
func (c *Chaos) Err() error {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.forward.Err()
}

var (
	_ Runner = (*Chaos)(nil)
	_ Faulty = (*Chaos)(nil)
)
