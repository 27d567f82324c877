package loadgen

import (
	"errors"
	"sync"
	"time"

	"locat/internal/service"
)

// Config parameterizes one load-generation run.
type Config struct {
	// Clients is the number of concurrent client goroutines (default 8).
	Clients int
	// SequentialSubmit issues every submission from a single goroutine in
	// workload order before any polling starts; only the polling fans out.
	// This makes the service's admission decisions (accept / reject / shed)
	// a pure function of the workload — the mode the benchmark gate uses.
	// Unset, clients submit and poll concurrently: realistic contention,
	// nondeterministic admission interleaving.
	SequentialSubmit bool
	// AfterSubmit, if non-nil, runs once after every submission has been
	// issued and before polling begins (SequentialSubmit only). The
	// benchmark experiment uses it to release a held worker pool, so the
	// whole admission sequence resolves against a full queue.
	AfterSubmit func()
}

// pollInterval spaces the status polls of one job; pollTimeout bounds one
// job's wait for a terminal state, and a timed-out job counts as failed.
const (
	pollInterval = 2 * time.Millisecond
	pollTimeout  = 5 * time.Minute
)

// outcome is the per-op record the pollers fill in; the final accumulation
// pass folds them into the report in op order, so every count and float sum
// is independent of polling interleave.
type outcome struct {
	accepted bool
	rejected bool
	failed   bool
	state    service.State
	hit      bool
	recOK    bool
	res      *service.JobResult
}

// Run drives the workload against the target and reports latencies and
// outcome counts. Tune ops are submitted, polled to a terminal state, and
// their results fetched; recommend ops are synchronous. The error return is
// reserved for harness misuse (no ops); per-op failures are counted, not
// fatal — a load test's job is to observe refusals, not to stop on them.
func Run(target Target, ops []Op, cfg Config) (*Report, error) {
	if len(ops) == 0 {
		return nil, errors.New("loadgen: empty workload")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}

	start := time.Now()
	var mu sync.Mutex // guards the latency sample slices
	samples := map[string][]float64{}
	record := func(route string, d time.Duration) {
		mu.Lock()
		samples[route] = append(samples[route], d.Seconds())
		mu.Unlock()
	}

	outs := make([]outcome, len(ops))
	ids := make([]string, len(ops))

	// submit issues op i's submission (or synchronous recommendation).
	submit := func(i int) {
		op := ops[i]
		switch op.Kind {
		case KindRecommend:
			t0 := time.Now()
			rec, err := target.Recommend(service.RecommendRequest{JobSpec: op.Spec})
			record("recommend", time.Since(t0))
			switch {
			case err == nil:
				outs[i].recOK = true
				outs[i].hit = rec.Outcome == "hit"
			case isOverload(err):
				outs[i].rejected = true
			default:
				outs[i].failed = true
			}
		default:
			t0 := time.Now()
			id, err := target.Submit(op.Spec)
			record("submit", time.Since(t0))
			switch {
			case err == nil:
				outs[i].accepted = true
				ids[i] = id
			case isOverload(err):
				outs[i].rejected = true
			default:
				outs[i].failed = true
			}
		}
	}

	// settle polls op i's accepted job to a terminal state and fetches the
	// result of a success.
	settle := func(i int) {
		deadline := time.Now().Add(pollTimeout)
		for {
			t0 := time.Now()
			st, err := target.Status(ids[i])
			record("status", time.Since(t0))
			if err != nil {
				outs[i].failed = true
				return
			}
			if st.State.Terminal() {
				outs[i].state = st.State
				break
			}
			if time.Now().After(deadline) {
				outs[i].failed = true
				return
			}
			time.Sleep(pollInterval)
		}
		if outs[i].state == service.StateSucceeded {
			t0 := time.Now()
			res, err := target.Result(ids[i])
			record("result", time.Since(t0))
			if err != nil {
				outs[i].failed = true
				return
			}
			outs[i].res = res
		}
	}

	work := make(chan int, len(ops))
	var wg sync.WaitGroup
	pool := func(f func(int)) {
		for c := 0; c < cfg.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					f(i)
				}
			}()
		}
	}

	if cfg.SequentialSubmit {
		for i := range ops {
			submit(i)
		}
		if cfg.AfterSubmit != nil {
			cfg.AfterSubmit()
		}
		pool(settle)
		for i := range ops {
			if outs[i].accepted {
				work <- i
			}
		}
	} else {
		pool(func(i int) {
			submit(i)
			if outs[i].accepted {
				settle(i)
			}
		})
		for i := range ops {
			work <- i
		}
	}
	close(work)
	wg.Wait()

	// Accumulate in op order: deterministic counts and float sums no matter
	// how the pollers interleaved.
	rep := &Report{Ops: len(ops), Routes: map[string]RouteStats{}}
	for i, op := range ops {
		c := rep.group(op)
		o := outs[i]
		c.Submitted++
		switch {
		case o.rejected:
			c.Rejected++
			continue
		case o.failed && !o.accepted:
			c.Failed++
			continue
		}
		if op.Kind == KindRecommend {
			if o.recOK {
				c.Completed++
				if o.hit {
					c.Hits++
				}
			}
			continue
		}
		c.Accepted++
		switch o.state {
		case service.StateSucceeded:
			if o.res != nil {
				c.Completed++
				if o.res.Degraded != "" {
					c.Degraded++
				}
				c.Runs += o.res.Runs
				c.ClusterSec += o.res.ClusterSec
			} else {
				c.Failed++
			}
		case service.StateShed:
			c.Shed++
		case service.StateSuspended:
			c.Suspended++
		case service.StateCancelled:
			c.Cancelled++
		default:
			c.Failed++
		}
	}
	for route, s := range samples {
		rep.Routes[route] = quantiles(s)
	}
	rep.WallSec = time.Since(start).Seconds()
	return rep, nil
}

// isOverload classifies admission back-pressure: the service's typed errors
// in-process, the 429 envelope over HTTP.
func isOverload(err error) bool {
	var be *service.BudgetError
	if errors.As(err, &be) {
		return true
	}
	var rej *Rejection
	if errors.As(err, &rej) {
		return rej.Overload()
	}
	return errors.Is(err, service.ErrQueueFull)
}
