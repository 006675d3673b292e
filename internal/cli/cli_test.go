package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"nscc/internal/core"
	"nscc/internal/exper"
	"nscc/internal/netsim"
	"nscc/internal/sim"
)

// TestRegisterDeclaresGroups checks that Register declares the five
// flags every command takes plus exactly the groups asked for, and that
// a usage override replaces only its own flag's help text.
func TestRegisterDeclaresGroups(t *testing.T) {
	defer func(saved *flag.FlagSet) { flag.CommandLine = saved }(flag.CommandLine)
	common := []string{"faults", "http", "read-timeout", "reliable", "simrace"}
	for _, tc := range []struct {
		has  Has
		more []string
	}{
		{0, nil},
		{Switch | Load | SimRaceOut | Mode | Func, []string{"age", "func", "load", "mode", "simrace-out", "switch"}},
		{Switch | Sweep, []string{"cache-dir", "csv", "loss", "resume", "switch", "trials", "workers"}},
	} {
		flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
		Register(tc.has, map[string]string{"simrace": "own text"})
		var got []string
		flag.VisitAll(func(fl *flag.Flag) { got = append(got, fl.Name) })
		want := append(append([]string{}, common...), tc.more...)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("Register(%b) declares %v, want %v", tc.has, got, want)
		}
		if u := flag.Lookup("simrace").Usage; u != "own text" {
			t.Errorf("-simrace usage %q, want the override", u)
		}
		if u := flag.Lookup("reliable").Usage; u == "own text" {
			t.Error("the -simrace override replaced -reliable's usage")
		}
	}
}

// TestCheckRules checks each rule Check holds: value ranges, the flags
// that need another, -mode parsing, the -load check against the chosen
// fabric, -faults loading and the drop rule. Each refusal is one line
// naming the flag.
func TestCheckRules(t *testing.T) {
	dir := t.TempDir()
	lossy := filepath.Join(dir, "lossy.json")
	if err := os.WriteFile(lossy, []byte(`{"loss":[{"from":0,"to":2,"prob":0.3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	delay := filepath.Join(dir, "delay.json")
	if err := os.WriteFile(delay, []byte(`{"delays":[{"from":0,"to":1,"delay":0.002}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	single := func(mode string) Flags { return Flags{has: Mode | Load | Switch, ModeName: mode} }
	hier := netsim.DefaultHierConfig()
	for _, tc := range []struct {
		name string
		f    Flags
		sync bool
		want string // substring of the error; "" = no error
	}{
		{"defaults", Flags{}, true, ""},
		{"negative read timeout", Flags{ReadTimeout: -time.Millisecond}, false, "-read-timeout"},
		{"loss above 1", Flags{Loss: 1.5}, false, "-loss"},
		{"negative loss", Flags{Loss: -0.1}, false, "-loss"},
		{"loss on the switch", Flags{Loss: 0.1, Switch: true, Reliable: true}, false, "-switch"},
		{"hier and the switch", Flags{Switch: true, Hier: &hier}, false, "-hier with -switch"},
		{"resume without cache", Flags{Resume: true}, false, "-resume requires -cache-dir"},
		{"race report without checker", Flags{SimRaceOut: "r.json"}, false, "-simrace-out requires -simrace"},
		{"function 0", Flags{has: Func}, false, "-func 0"},
		{"function 9", Flags{has: Func, Func: 9}, false, "-func 9"},
		{"negative age", Flags{Age: -1}, false, "-age"},
		{"negative trials", Flags{Trials: -1}, false, "-trials"},
		{"negative workers", Flags{Workers: -1}, false, "-workers"},
		{"unknown mode", single("bogus"), false, "-mode"},
		{"load above the bus", Flags{Load: 2e7}, false, "-load"},
		{"load below 1 bit/s", Flags{Load: 1e-7}, false, "-load"},
		{"load within the switch", Flags{Load: 2e7, Switch: true}, false, ""},
		{"missing plan", Flags{Faults: filepath.Join(dir, "missing.json")}, false, "-faults"},
		{"plan that only delays", Flags{Faults: delay}, true, ""},
		{"dropping plan, sync cell", Flags{Faults: lossy}, true, "-reliable"},
		{"dropping plan, reliable", Flags{Faults: lossy, Reliable: true}, true, ""},
		{"dropping plan, no sync cell", Flags{Faults: lossy}, false, ""},
		{"bus loss, sync cell", Flags{Loss: 0.3}, true, "-loss 0.3: the bus loses frames"},
		{"bus loss, reliable", Flags{Loss: 0.3, Reliable: true}, true, ""},
		{"dropping plan, sync mode", Flags{has: Mode, ModeName: "sync", Faults: lossy}, false, "the sync run"},
		{"dropping plan, async mode", Flags{has: Mode, ModeName: "async", Faults: lossy}, false, ""},
		{"dropping plan, untimed read", Flags{has: Mode, ModeName: "global_read", Faults: lossy}, false, "-read-timeout"},
		{"dropping plan, timed read", Flags{has: Mode, ModeName: "global_read", Faults: lossy, ReadTimeout: time.Millisecond}, false, ""},
	} {
		f := tc.f
		err := f.Check(tc.sync)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n")):
			t.Errorf("%s: error %v, want one line containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckFillsRun checks what Check derives for a run: the parsed
// mode, the fabric and the cluster options, and Exper's sweep options.
func TestCheckFillsRun(t *testing.T) {
	f := Flags{has: Mode | Switch | Load | Sweep, ModeName: "async", Switch: true, Load: 1e6,
		Reliable: true, ReadTimeout: 50 * time.Millisecond, SimRace: true, Trials: 3, Workers: 2}
	if err := f.Check(true); err != nil {
		t.Fatal(err)
	}
	spec := f.Cluster
	switch {
	case f.Mode != core.Async:
		t.Errorf("mode %v, want async", f.Mode)
	case spec.Switch == nil || spec.Hier != nil || spec.LoaderBps != 1e6:
		t.Errorf("fabric %+v, want the switch and a 1 Mbit/s loader", spec)
	case !spec.Reliable || spec.ReadTimeout != 50*sim.Millisecond || !spec.RaceCheck || spec.Faults != nil:
		t.Errorf("cluster options %+v", spec.Options)
	}
	hier := netsim.DefaultHierConfig()
	h := Flags{has: Mode | Switch | Load, ModeName: "async", Load: 1e6, Hier: &hier}
	if err := h.Check(true); err != nil {
		t.Fatal(err)
	}
	if spec := h.Cluster; spec.Switch != nil || spec.Hier != &hier || spec.LoaderBps != 1e6 {
		t.Errorf("fabric %+v, want the given rack/spine config and a 1 Mbit/s loader", spec)
	}

	opts := exper.Quick()
	f.Exper(&opts)
	switch {
	case opts.Trials != 3 || opts.Workers != 2 || !opts.UseSwitch:
		t.Errorf("sweep options %+v", opts)
	case !opts.Reliable || opts.ReadTimeout != 50*sim.Millisecond || !opts.SimRace:
		t.Errorf("sweep fault options %+v", opts)
	case opts.Progress != nil || opts.Ckpt != nil:
		// A nil server in the interface would be a non-nil sink.
		t.Errorf("progress sink %v and cache %v without -http and -cache-dir", opts.Progress, opts.Ckpt)
	}
}

// TestWriteCSV checks that WriteCSV does nothing without -csv and
// otherwise creates the directory and writes the file whole.
func TestWriteCSV(t *testing.T) {
	fill := func(w io.Writer) error { _, err := io.WriteString(w, "a,b\n1,2\n"); return err }
	if err := (&Flags{}).WriteCSV("x.csv", fill); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "out")
	if err := (&Flags{CSV: dir}).WriteCSV("x.csv", fill); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "x.csv"))
	if err != nil || string(got) != "a,b\n1,2\n" {
		t.Fatalf("x.csv = %q, %v", got, err)
	}
}
