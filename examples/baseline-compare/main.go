// baseline-compare reruns the paper's headline comparison on one problem:
// LOCAT versus Tuneful, DAC, GBO-RL and QTune on HiBench Aggregation at
// 200 GB (ARM cluster). The quantity to watch is the optimization overhead —
// the simulated cluster time each tuner burns before it hands back a
// configuration.
//
//	go run ./examples/baseline-compare
package main

import (
	"fmt"
	"log"

	"locat"
)

func main() {
	o := locat.Options{
		Cluster:    "arm",
		Benchmark:  "Aggregation",
		DataSizeGB: 200,
		Seed:       11,
	}

	res, err := locat.Tune(o)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := locat.CompareBaselines(o)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("HiBench Aggregation @ 200 GB, ARM cluster")
	fmt.Printf("%-8s %12s %14s %6s %18s\n", "tuner", "tuned (s)", "overhead (h)", "runs", "LOCAT time saving")
	fmt.Printf("%-8s %12.0f %14.1f %6d %18s\n",
		"LOCAT", res.TunedSeconds, res.OverheadSeconds/3600, res.Runs, "—")
	for _, r := range rs {
		fmt.Printf("%-8s %12.0f %14.1f %6d %17.1fx\n",
			r.Tuner, r.TunedSec, r.OverheadSec/3600, r.Runs,
			r.OverheadSec/res.OverheadSeconds)
	}
}
