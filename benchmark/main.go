// Command benchmark measures nscc's experiment sweeps end to end and
// layer by layer.
//
// Each workload is one exper sweep, split into parts. A run runs its
// jobs, each one part at one seed, in two passes, every job in a child
// process of its own (one worker, GOMAXPROCS=1). An untraced run prints
// the end-to-end metrics: cells per second, CPU seconds per cell, peak
// RSS and set-up time. A traced run (-trace 1) profiles its second pass
// and prints the per-layer metrics: CPU shares from the folded profile,
// the simulated work counts of one representative cell, runtime
// allocation per cell, and the layer micros. Both check every job's
// results and print, last, one JSON line with the verdict and the
// metrics.
//
//	bash benchmark/run.sh -workload fig2_ga -seed 2000 -seconds 10 -trace 0
//	bash benchmark/run.sh -runs 5 -out set.jsonl          # every workload, 5 runs each
//	bash benchmark/run.sh -agree a.jsonl b.jsonl          # do two sets agree?
//
// README.md documents the workloads, metrics and baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg    runConfig
		child  childFlags
		name   = fs.String("workload", "all", "workload to run, or all: "+workloadList())
		runs   = fs.Int("runs", 1, "runs of each workload")
		out    = fs.String("out", "", "append one JSON record per run to this file (the input of -agree)")
		agree  = fs.Bool("agree", false, "compare two record files, A and B, against the bounds in "+specPath)
		traced = fs.Bool("trace", false, "print the per-layer metrics instead of the end-to-end ones")
	)
	fs.Int64Var(&cfg.seed, "seed", 2000, "input seed (2001 is held out for checking claims)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "run length on the reference box; fixes each run's job count")
	fs.BoolVar(&cfg.tiny, "tiny", false, "run every workload at a test size")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for CPU profiles")
	child.register(fs)
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	cfg.trace = *traced

	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "-agree needs two record files")
			return 2
		}
		return agreeMain(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	}
	if child.mode != "" {
		child.workload, child.seed, child.tiny = *name, cfg.seed, cfg.tiny
		report, err := runChild(child)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(report)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark child: %v\n", err)
			return 1
		}
		return 0
	}

	sel := workloads
	if *name != "all" {
		wl, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q (want all or one of %s)\n", *name, workloadList())
			return 2
		}
		sel = []workload{wl}
	}
	for i := 0; i < *runs; i++ {
		for _, wl := range sel {
			cfg.wl = wl
			res, err := measure(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark %s: %v\n", wl.name, err)
				return 1
			}
			if err := res.print(stdout); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			if err := res.append(*out); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	return 0
}

// normalizeTrace rewrites "-trace 0" and "-trace 1" (the value as a
// separate word) to "-trace=0" and "-trace=1": the flag package reads a
// boolean's value only in the joined form.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

func workloadList() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}
