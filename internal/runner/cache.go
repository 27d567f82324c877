package runner

import (
	"sync"
	"sync/atomic"

	"locat/internal/conf"
)

// Cache serves executions out of previously-paid trace entries and passes
// everything else through to the inner backend. It is the one trace table
// behind three configurations:
//
//   - resume: prior entries from a checkpoint, a live backend inside and a
//     checkpoint writer as onRun — the service's checkpoint/restart story.
//     A session killed mid-job re-drives from the start under the same
//     seed; the deterministic search then asks for exactly the runs it
//     asked for last time, the cache answers the already-executed prefix
//     (consuming each entry once), and only the unpaid suffix reaches the
//     real backend. The resumed session's trajectory is bit-identical to an
//     uninterrupted one and Tally-style observers below the cache count
//     zero re-executed runs.
//   - record (NewRecorder): no prior entries, onRun writing to a TraceSink.
//   - replay (NewReplayerFromEntries): a recorded trace as prior entries
//     and, inside, a backend that executes nothing and applies the miss
//     policy.
//
// Fresh executions are reported to onRun as trace entries. Failed runs
// (zero results under the Runner contract) are not reported: a checkpoint
// or a trace must only hold results worth not re-paying.
type Cache struct {
	forward
	onRun func(TraceEntry)

	hits atomic.Int64

	mu    sync.Mutex
	prior traceTable      // the paid entries; lookups consume them under mu
	seen  map[string]bool // noiseless keys already reported to onRun, under mu
}

// NewCache wraps inner, serving lookups from prior entries first and
// reporting fresh executions to onRun (nil disables reporting). Entries of
// kinds the cache does not serve are ignored.
func NewCache(inner Runner, prior []TraceEntry, onRun func(TraceEntry)) *Cache {
	if onRun == nil {
		onRun = func(TraceEntry) {}
	}
	c := &Cache{forward: forward{inner}, onRun: onRun, seen: map[string]bool{}}
	for _, e := range prior {
		c.prior.add(e)
	}
	return c
}

// ResumedRuns reports how many executions were served from the checkpoint
// instead of re-executed.
func (c *Cache) ResumedRuns() int64 { return c.hits.Load() }

// lookup serializes a table lookup.
func (c *Cache) lookup(k string, idx uint64, consume bool) *TraceEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prior.lookup(k, idx, consume)
}

// RunApp claims the next index and resolves it through the cache: cached
// and fresh runs share the index sequence the original session used.
func (c *Cache) RunApp(app *Application, cf conf.Config, dataGB float64) AppResult {
	return c.RunAppAt(c.inner.ReserveRuns(1), app, cf, dataGB, nil)
}

// RunAppAt serves run idx from the prior entries when it was already paid —
// cache hits intercept before the backend, which is why the native batch is
// masked — executing (and reporting) it otherwise. A hit copies the stored
// per-query results into into[:0]; a reported run keeps a copy of its own,
// so the caller may overwrite into afterwards.
func (c *Cache) RunAppAt(idx uint64, app *Application, cf conf.Config, dataGB float64, into []QueryResult) AppResult {
	q := entryOf(TraceApp, app, cf, dataGB)
	if hit := c.lookup(q.key(), idx, true); hit != nil && hit.Result != nil {
		c.hits.Add(1)
		return resultInto(*hit.Result, into)
	}
	res := c.inner.RunAppAt(idx, app, cf, dataGB, into)
	if res.Sec > 0 {
		c.onRun(q.stored(idx).withResult(res))
	}
	return res
}

// NoiselessAppTime serves prior deterministic evaluations without consuming
// them (they are pure and may repeat) and evaluates the rest on the inner
// backend, reporting each distinct one once.
func (c *Cache) NoiselessAppTime(app *Application, cf conf.Config, dataGB float64) float64 {
	q := entryOf(TraceNoiseless, app, cf, dataGB)
	k := q.key()
	if hit := c.lookup(k, 0, false); hit != nil {
		return hit.Sec
	}
	sec := c.inner.NoiselessAppTime(app, cf, dataGB)
	c.mu.Lock()
	fresh := !c.seen[k]
	c.seen[k] = true
	c.mu.Unlock()
	if fresh {
		q = q.stored(0)
		q.Sec = sec
		c.onRun(q)
	}
	return sec
}

var (
	_ Runner = (*Cache)(nil)
	_ Faulty = (*Cache)(nil)
)
