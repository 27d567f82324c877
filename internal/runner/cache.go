package runner

import (
	"sync/atomic"

	"locat/internal/conf"
)

// Cache serves executions out of previously-paid trace entries and passes
// everything else through to the inner backend — the resume half of the
// service's checkpoint/restart story. A session killed mid-job re-drives
// from the start under the same seed; the deterministic search then asks
// for exactly the runs it asked for last time, the cache answers the
// already-executed prefix from the checkpoint (consuming each entry once,
// like a Replayer), and only the unpaid suffix reaches the real backend.
// The resumed session's trajectory is bit-identical to an uninterrupted one
// and Tally-style observers below the cache count zero re-executed runs.
//
// Fresh executions are reported to onRun as trace entries — the feed the
// service's periodic checkpoint writer persists. Failed runs (zero results
// under the Runner contract) are not reported: a checkpoint must only hold
// results worth not re-paying.
type Cache struct {
	forward
	onRun func(TraceEntry)

	hits      atomic.Int64
	prior     traceTable    // the checkpoint, looked up like a Replayer's trace
	noiseless noiselessOnce // noiseless keys already reported to onRun
}

// NewCache wraps inner, serving lookups from prior entries first and
// reporting fresh executions to onRun (nil disables reporting). Entries of
// kinds the cache does not serve are ignored.
func NewCache(inner Runner, prior []TraceEntry, onRun func(TraceEntry)) *Cache {
	if onRun == nil {
		onRun = func(TraceEntry) {}
	}
	c := &Cache{forward: forward{inner}, onRun: onRun}
	for _, e := range prior {
		c.prior.add(e)
		if e.Kind == TraceNoiseless {
			// Already persisted; do not re-report it on a cache miss replay.
			c.noiseless.mark(e.key())
		}
	}
	return c
}

// ResumedRuns reports how many executions were served from the checkpoint
// instead of re-executed.
func (c *Cache) ResumedRuns() int64 { return c.hits.Load() }

// RunApp claims the next index and resolves it through the cache: cached
// and fresh runs share the index sequence the original session used.
func (c *Cache) RunApp(app *Application, cf conf.Config, dataGB float64) AppResult {
	return c.RunAppAt(c.inner.ReserveRuns(1), app, cf, dataGB)
}

// RunAppAt serves run idx from the checkpoint when it was already paid —
// cache hits intercept before the backend, which is why the native batch is
// masked — executing (and reporting) it otherwise.
func (c *Cache) RunAppAt(idx uint64, app *Application, cf conf.Config, dataGB float64) AppResult {
	q := entryOf(TraceApp, app, cf, dataGB)
	if hit := c.prior.lookup(q.key(), idx, true); hit != nil && hit.Result != nil {
		c.hits.Add(1)
		return cloneResult(*hit.Result)
	}
	res := c.inner.RunAppAt(idx, app, cf, dataGB)
	if res.Sec > 0 {
		c.onRun(q.stored("", idx).withResult(res))
	}
	return res
}

// NoiselessAppTime serves checkpointed deterministic evaluations without
// consuming them (they are pure and may repeat), reporting fresh ones once.
func (c *Cache) NoiselessAppTime(app *Application, cf conf.Config, dataGB float64) float64 {
	q := entryOf(TraceNoiseless, app, cf, dataGB)
	if hit := c.prior.lookup(q.key(), 0, false); hit != nil {
		return hit.Sec
	}
	return c.noiseless.eval(c.inner, "", app, cf, dataGB, c.onRun)
}

var (
	_ Runner = (*Cache)(nil)
	_ Faulty = (*Cache)(nil)
)
