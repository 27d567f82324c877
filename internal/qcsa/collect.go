package qcsa

import (
	"math/rand"

	"locat/internal/conf"
	"locat/internal/runner"
	"locat/internal/sparksim"
)

// Collect executes the application once per configuration on the execution
// backend — the sample-collection runs QCSA's CV statistics are computed
// from — and returns the results in configuration order, through
// runner.RunBatch's bounded worker pool. On index-deterministic backends
// the results are identical to a serial loop for any worker count
// (workers ≤ 0 selects GOMAXPROCS), so the calibration experiments can
// saturate the hardware without changing their figures.
func Collect(r runner.Runner, app *sparksim.Application, cs []conf.Config, dataGB float64, workers int) []sparksim.AppResult {
	runs, _ := runner.RunBatch(r, app, cs, func(int) float64 { return dataGB }, workers, nil)
	return runs
}

// CollectRandom draws n random configurations from the space (serially, so
// the draw sequence is reproducible) and collects their runs with Collect.
func CollectRandom(r runner.Runner, app *sparksim.Application, space *conf.Space, n int, dataGB float64, workers int, rng *rand.Rand) []sparksim.AppResult {
	cs := make([]conf.Config, n)
	for i := range cs {
		cs[i] = space.Random(rng)
	}
	return Collect(r, app, cs, dataGB, workers)
}
