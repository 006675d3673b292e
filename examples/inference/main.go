// Parallel probabilistic inference: the paper's second driver
// application.
//
// Estimates a posterior probability in a Table 2-style belief network
// by logic sampling — serially, then on two simulated processors under
// the three coherence disciplines, all on one bayes.Plan — and prints
// completion times and the rollback machinery's bookkeeping (the
// paper's Figure 3 comparison for one network).
//
//	go run ./examples/inference
package main

import (
	"fmt"

	"nscc/internal/bayes"
	"nscc/internal/core"
)

func main() {
	bn := bayes.Table2Networks()[3] // the Hailfinder-like network
	q := bayes.DefaultQuery(bn)
	calib := bayes.DefaultCalibration()
	const (
		prec = 0.015
		seed = 3
	)

	fmt.Printf("network %s: %d nodes, %.1f edges/node, %d values/node\n",
		bn.Name, bn.N(), bn.EdgesPerNode(), bn.MaxStates())

	serial := bayes.InferSerial(bn, q, prec, seed, calib, 500000)
	fmt.Printf("serial: time=%v prob=%.4f (+-%.4f) samples=%d\n",
		serial.Time, serial.Prob, serial.HalfWidth, serial.Iters)

	// The three disciplines run on one plan: one partition of the
	// network and one set of default values, as in a Figure 3 cell.
	plan, err := bayes.NewPlan(bn, q, 2, seed)
	if err != nil {
		panic(err)
	}
	for _, v := range []struct {
		name string
		mode core.Mode
		age  int64
	}{
		{"sync", core.Sync, 0},
		{"async", core.Async, 0},
		{"gr(age=10)", core.NonStrict, 10},
	} {
		cfg := bayes.ParallelConfig{
			Net: bn, Query: q, P: 2,
			Mode: v.mode, Age: v.age,
			Precision: prec, MaxIters: 500000,
			Seed: seed, Calib: calib,
		}
		res, err := plan.Run(cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-11s time=%v speedup=%.2f prob=%.4f gambles=%d rollbacks=%d replayed=%d blocked=%v\n",
			v.name, res.Completion, serial.Time.Seconds()/res.Completion.Seconds(),
			res.Prob, res.Gambles, res.Rollbacks, res.Replayed, res.BlockedTime)
	}
	fmt.Println()
	fmt.Println("sync pays a message wave per topological phase every sample;")
	fmt.Println("async gambles on default values and repairs by costly rollback replays;")
	fmt.Println("Global_Read keeps the partitions close, so rollbacks stay short.")
}
