package service

import (
	"slices"
	"sync"
)

// dispatcher is the priority-aware job queue between Submit and the worker
// pool. Two FIFO lanes — interactive ahead of batch — share one capacity
// bound, so cheap interactive work (recommend refinements, deadline-bounded
// tuning) never waits behind a backlog of batch sessions. When the queue is
// full, an interactive submission displaces the youngest queued batch job
// (returned to the caller for shed bookkeeping) instead of being refused;
// batch submissions against a full queue are refused outright.
//
// The dispatcher replaces the old buffered channel: lanes under a mutex
// cannot panic on a send-after-close race, and Close can inspect and drain
// the backlog atomically instead of cancelling whatever happens to still be
// buffered.
//
// Locking: enqueue, remove and drain are called with the service mutex held,
// which is what lets the service keep a job in a lane exactly while its state
// is queued (see the package doc); dequeue is called bare by the workers.
// Nothing under d.mu ever takes the service mutex, so the order s.mu → d.mu
// is acyclic.
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	inter  []*job // interactive lane, FIFO
	batch  []*job // batch lane, FIFO
	held   bool   // hold intake open but park dequeues (deterministic load tests)
	closed bool
}

func newDispatcher(capacity int) *dispatcher {
	d := &dispatcher{cap: capacity}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// lane is the FIFO j's priority class waits in.
func (d *dispatcher) lane(j *job) *[]*job {
	if j.spec.Priority == PriorityInteractive {
		return &d.inter
	}
	return &d.batch
}

// enqueue admits j into its priority lane. When the queue is full, j is
// interactive and the caller lets it evict, the youngest queued batch job is
// evicted and returned as shed — the caller settles its lifecycle. ok is
// false when the dispatcher is closed or the submission must be refused.
func (d *dispatcher) enqueue(j *job, evict bool) (shed *job, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false
	}
	if len(d.inter)+len(d.batch) >= d.cap {
		if !evict || j.spec.Priority != PriorityInteractive || len(d.batch) == 0 {
			return nil, false
		}
		shed = d.batch[len(d.batch)-1]
		d.batch = d.batch[:len(d.batch)-1]
	}
	l := d.lane(j)
	*l = append(*l, j)
	d.cond.Signal()
	return shed, true
}

// dequeue blocks until a job is available (interactive lane first) and
// returns it. ok is false once the dispatcher is closed and both lanes are
// empty — the worker-pool shutdown signal. A held dispatcher parks dequeues
// while still admitting enqueues; close overrides hold so shutdown never
// deadlocks behind a forgotten release.
func (d *dispatcher) dequeue() (j *job, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed || !d.held {
			for _, l := range []*[]*job{&d.inter, &d.batch} {
				if len(*l) > 0 {
					j, *l = (*l)[0], (*l)[1:]
					return j, true
				}
			}
		}
		if d.closed {
			return nil, false
		}
		d.cond.Wait() //locat:allow lockcheck Cond.Wait releases d.mu while parked; holding it is the Cond contract
	}
}

// remove takes a job cancelled while queued out of its lane, so its slot is
// free at once. A job a worker has just dequeued is in no lane any more;
// removing it is a no-op and the worker's own state check skips it.
func (d *dispatcher) remove(j *job) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := d.lane(j)
	if i := slices.Index(*l, j); i >= 0 {
		*l = slices.Delete(*l, i, i+1)
	}
}

// drain removes and returns every queued job (interactive first, each lane
// in FIFO order) without waking workers — the graceful-shutdown path that
// checkpoints the backlog instead of running it.
func (d *dispatcher) drain() []*job {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*job, 0, len(d.inter)+len(d.batch))
	out = append(out, d.inter...)
	out = append(out, d.batch...)
	d.inter, d.batch = nil, nil
	return out
}

// close stops intake and wakes every parked worker so the pool can exit.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}

// hold parks the workers without refusing submissions: jobs accumulate in
// the lanes until release. Deterministic load tests submit a whole workload
// under hold, so admission and shedding become a pure function of the
// submission order — the worker count cannot influence them.
func (d *dispatcher) hold() {
	d.mu.Lock()
	d.held = true
	d.mu.Unlock()
}

// release reopens dequeues after hold and wakes the workers.
func (d *dispatcher) release() {
	d.mu.Lock()
	d.held = false
	d.mu.Unlock()
	d.cond.Broadcast()
}
