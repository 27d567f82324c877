package gp

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"locat/internal/stat"
)

// Slice-sampler settings: the initial bracket width and the multi-chain
// schedule.
const (
	sliceWidth = 0.8
	// Multi-chain schedule: a short shared pilot walk first moves the start
	// point from the prior default toward the posterior bulk (the serial
	// sampler's burn-in does the same job implicitly), then every chain
	// decorrelates from it with its own burn before emitting. Total posterior
	// evaluations stay comparable to the serial schedule while the per-chain
	// critical path — what parallel hardware actually waits on — shrinks to
	// chainBurn+1 iterations.
	pilotIters = 4
	chainBurn  = 3
)

// SampleHyper is SampleHyperIn on a workspace of its own: the MCMC
// marginalization step of the EI-MCMC acquisition (Snoek et al. 2012) that
// the paper adopts (Section 3.4, "Acquisition function").
func (ts *TrainSet) SampleHyper(n int, rng *rand.Rand, workers int) []Hyper {
	return ts.SampleHyperIn(new([]FitWorkspace), n, rng, workers)
}

// SampleHyperIn draws n posterior samples by running n independent chains of
// univariate slice sampling (Neal 2003), cycled over the three
// log-hyperparameters, over the cached training set, fanned over a bounded
// worker pool (workers ≤ 0 selects GOMAXPROCS). Chain c's randomness comes
// from its own stream, seeded by stat.SplitSeed — the per-run determinism
// pattern sparksim uses — from a single draw from rng, so for a fixed
// rng state the returned samples are bit-identical at every worker count;
// the pool size only changes wall-clock time. Each chain burns in
// independently and contributes one sample, so the marginalized samples are
// genuinely independent draws rather than the thinned, serially correlated
// states a single chain emits.
//
// *ws holds one fit workspace per worker of the chain pool, the first also
// serving the pilot walk, and is grown to the pool: a caller that keeps it
// across resamples (Workspace) stops allocating kernel buffers and
// generators.
func (ts *TrainSet) SampleHyperIn(ws *[]FitWorkspace, n int, rng *rand.Rand, workers int) []Hyper {
	if n <= 0 {
		return nil
	}
	base := rng.Int63()
	out := make([]Hyper, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if pool := min(workers, n); len(*ws) < pool {
		*ws = append(*ws, make([]FitWorkspace, pool-len(*ws))...)
	}
	fws := *ws
	pws := &fws[0]

	// Shared pilot walk: a few serial slice-sampling iterations from the
	// prior default toward the posterior bulk, on its own derived stream
	// (tag n — one past the chain indices). Every chain then forks from the
	// pilot state. The exp map may use the full worker budget here: no chain
	// runs yet.
	pilotRng := pws.seeded(stat.SplitSeed(base, uint64(n)))
	pilotPost := func(h Hyper) float64 { return ts.LogPosterior(h, pws, workers) }
	start := DefaultHyper()
	startLP := pilotPost(start)
	if math.IsInf(startLP, -1) {
		// Degenerate data; the prior default is the only sane answer.
		for i := range out {
			out[i] = start
		}
		return out
	}
	for it := 0; it < pilotIters; it++ {
		for coord := 0; coord < 3; coord++ {
			start, startLP = sliceStep(pilotPost, start, startLP, coord, sliceWidth, pilotRng)
		}
	}

	// The chain pool never needs more workers than chains.
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for c := range out {
			out[c] = ts.sampleChain(stat.SplitSeed(base, uint64(c)), start, startLP, pws, 1)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= n {
					return
				}
				out[c] = ts.sampleChain(stat.SplitSeed(base, uint64(c)), start, startLP, &fws[w], 1)
			}
		}()
	}
	wg.Wait()
	return out
}

// sampleChain runs one independent slice-sampling chain from the pilot
// state through its own burn-in and returns its final state. All posterior
// evaluations happen in ws with zero allocations per step.
func (ts *TrainSet) sampleChain(seed int64, start Hyper, startLP float64, ws *FitWorkspace, workers int) Hyper {
	rng := ws.seeded(seed)
	logPost := func(h Hyper) float64 { return ts.LogPosterior(h, ws, workers) }
	cur, curLP := start, startLP
	for it := 0; it <= chainBurn; it++ {
		for coord := 0; coord < 3; coord++ {
			cur, curLP = sliceStep(logPost, cur, curLP, coord, sliceWidth, rng)
		}
	}
	return cur
}

// sliceStep performs one univariate slice-sampling update of coordinate
// coord of the hyperparameter vector against the log posterior logPost.
func sliceStep(logPost func(Hyper) float64, h Hyper, lp float64, coord int, width float64, rng *rand.Rand) (Hyper, float64) {
	get := func(h Hyper) float64 {
		switch coord {
		case 0:
			return h.LogLen
		case 1:
			return h.LogSignal
		default:
			return h.LogNoise
		}
	}
	set := func(h Hyper, v float64) Hyper {
		switch coord {
		case 0:
			h.LogLen = v
		case 1:
			h.LogSignal = v
		default:
			h.LogNoise = v
		}
		return h
	}

	x0 := get(h)
	logU := lp + math.Log(rng.Float64()+1e-300)

	// Step out.
	lo := x0 - width*rng.Float64()
	hi := lo + width
	for i := 0; i < 8 && logPost(set(h, lo)) > logU; i++ {
		lo -= width
	}
	for i := 0; i < 8 && logPost(set(h, hi)) > logU; i++ {
		hi += width
	}

	// Shrink.
	for i := 0; i < 20; i++ {
		v := lo + rng.Float64()*(hi-lo)
		cand := set(h, v)
		clp := logPost(cand)
		if clp > logU {
			return cand, clp
		}
		if v < x0 {
			lo = v
		} else {
			hi = v
		}
	}
	return h, lp
}
