package sparksim

import "locat/internal/conf"

// The single-query entry points and the run-noise override only the tests
// use: production runs whole applications at the default run noise.

// withRunNoise sets the per-run whole-application noise (lognormal sigma);
// together with WithNoise(0), withRunNoise(0) makes runs fully
// deterministic.
func withRunNoise(sigma float64) Option {
	return func(s *Simulator) { s.runNoise = sigma }
}

// runOneQuery executes q under c as the simulator's next run index.
func runOneQuery(s *Simulator, q Query, c conf.Config, dataGB float64) QueryResult {
	return runOneQueryAt(s, s.ReserveRuns(1), q, c, dataGB)
}

// runOneQueryAt executes q under c as run index idx without touching the
// run counter.
func runOneQueryAt(s *Simulator, idx uint64, q Query, c conf.Config, dataGB float64) QueryResult {
	rng := s.runRNG(idx)
	defer rngPool.Put(rng)
	e := deriveEnv(s.cluster, c)
	return s.runQuery(rng, &e, &q, c, dataGB)
}

// noiselessQueryTime returns the noise-free latency of q under c.
func noiselessQueryTime(s *Simulator, q Query, c conf.Config, dataGB float64) float64 {
	e := deriveEnv(s.cluster, c)
	return simulateQuery(&e, &q, c, dataGB, nil).Sec
}
