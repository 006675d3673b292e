package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// repoPrefix starts every frame of the repo's packages.
const repoPrefix = "nscc/internal/"

// layerOf books a repo package's samples to its layer. A frame of a
// package not listed here (faults, simrace, trace, obs: all off in
// every workload) passes its samples on to the next listed frame out.
var layerOf = map[string]string{
	"sim":          "sim",
	"netsim":       "netsim",
	"pvm":          "pvm",
	"core":         "core",
	"ga":           "ga",
	"ga/functions": "ga",
	"bayes":        "bayes",
	"partition":    "bayes",
	"rollback":     "rollback",
	"graph":        "graph",
	"metrics":      "metrics",
	"tseries":      "metrics",
	"exper":        "exper",
	"runner":       "exper",
	"ckpt":         "exper",
}

// leafPrefixes name the stdlib and runtime costs by the first frame,
// walking out from the leaf, that matches one. The walk stops at the
// first repo frame: a leaf kind is what repo code called, not what it
// did itself.
var leafPrefixes = []struct {
	kind     string
	prefixes []string
}{
	{"rand", []string{"math/rand."}},
	{"sort", []string{"sort.", "slices."}},
	{"map", []string{"runtime.map", "internal/runtime/maps."}},
	{"gc", []string{"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.greyobject", "runtime.sweepone",
		"runtime.newobject", "runtime.makeslice", "runtime.growslice", "runtime.wbBuf",
		"runtime.bulkBarrier", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mspan)",
		"runtime.(*gcWork)", "runtime.(*sweepLocked)"}},
	{"sched", []string{"runtime.chansend", "runtime.chanrecv", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
		"runtime.selectgo", "runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.stopm",
		"runtime.startm", "runtime.wakep", "runtime.runq", "runtime.execute", "runtime.gogo",
		"runtime.newproc", "runtime.goexit", "runtime.casgstatus", "runtime.send", "runtime.recv",
		"runtime.lock2", "runtime.unlock2", "runtime.osyield", "runtime.usleep"}},
}

// sample is one stack of a folded profile, leaf frame first.
type sample struct {
	seconds float64
	frames  []string
}

// foldProfiles merges CPU profiles and attributes their samples to
// layers and leaf kinds, using the toolchain's own
// `go tool pprof -traces`.
func foldProfiles(paths []string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, stderr.Bytes())
	}
	samples, err := parseTraces(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	return fold(samples), nil
}

// parseTraces reads `go tool pprof -traces` output: a header, then
// one block per distinct stack, each opened by a dashed separator line.
// A block's first line is the sample value and the leaf frame; each
// further line is one caller.
func parseTraces(r io.Reader) ([]sample, error) {
	var samples []sample
	var cur *sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			samples = append(samples, sample{})
			cur = &samples[len(samples)-1]
			continue
		}
		text := strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		if cur == nil || text == "" {
			continue // header
		}
		if len(cur.frames) == 0 {
			value, leaf, ok := strings.Cut(text, " ")
			if !ok {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			d, err := time.ParseDuration(value)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q: %v", line, err)
			}
			cur.seconds = d.Seconds()
			text = strings.TrimSpace(leaf)
		}
		cur.frames = append(cur.frames, text)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The output ends with a separator, which opened an empty block.
	out := samples[:0]
	for _, s := range samples {
		if len(s.frames) > 0 {
			out = append(out, s)
		}
	}
	return out, nil
}

// probeFrame starts the frames of the speed probe's goroutine, which
// shares the sweep's thread but is not the sweep's work.
const probeFrame = "main.(*speedProbe)."

// fold turns samples into the per-layer metrics: each layer's share of
// the sweep's samples (its "self time", stdlib and runtime frames
// included in the repo frame that called them) and each leaf kind's
// share, in %. The speed probe's samples are dropped. A run too short
// for a single sample has every share zero.
func fold(samples []sample) map[string]float64 {
	total := math.SmallestNonzeroFloat64
	byKey := map[string]float64{}
	for _, s := range samples {
		if slices.ContainsFunc(s.frames, func(f string) bool { return strings.HasPrefix(f, probeFrame) }) {
			continue
		}
		total += s.seconds
		byKey[layerOfStack(s.frames)+".cpu_pct"] += s.seconds
		if k := leafKind(s.frames); k != "" {
			byKey["leaf."+k+"_pct"] += s.seconds
		}
	}
	out := map[string]float64{}
	for _, l := range shareLayers {
		out[l+".cpu_pct"] = 100 * byKey[l+".cpu_pct"] / total
	}
	for _, k := range leafKinds {
		out["leaf."+k+"_pct"] = 100 * byKey["leaf."+k+"_pct"] / total
	}
	return out
}

// layerOfStack is the layer of the innermost listed repo frame, or
// "other" when the stack has none.
func layerOfStack(frames []string) string {
	for _, f := range frames {
		if l, ok := layerOf[repoPackage(f)]; ok {
			return l
		}
	}
	return "other"
}

// repoPackage returns the package of a repo frame relative to
// repoPrefix ("ga/functions" for a function of nscc/internal/ga/functions),
// or "" for any other frame.
func repoPackage(frame string) string {
	rest, ok := strings.CutPrefix(frame, repoPrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return pkg
}

// leafKind classifies a stack by its first frame, walking out from the
// leaf, that matches a leaf prefix; the walk stops at repo code.
func leafKind(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, repoPrefix) || strings.HasPrefix(f, "main.") {
			return ""
		}
		for _, lk := range leafPrefixes {
			for _, p := range lk.prefixes {
				if strings.HasPrefix(f, p) {
					return lk.kind
				}
			}
		}
	}
	return ""
}
