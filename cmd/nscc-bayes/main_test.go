package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with NSCC_RUN_MAIN set, so a test can observe its exit code.
func TestMain(m *testing.M) {
	if os.Getenv("NSCC_RUN_MAIN") == "1" {
		// Parse as the built command does, without the test flags.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadRunFlagsExitTwo checks that a flag value no run can use is one
// line on stderr and exit status 2, before the serial reference runs or
// prints: a negative -age (not a parallel run that deadlocks waiting for
// an iteration no writer reaches), a -procs or -maxiters below 1, a
// -prec that is NaN or not above 0 (not a run to the iteration cap), a
// negative -batch (not a run at the mode's default), an unknown -mode
// or -algo, an unreadable -faults file, a negative
// -read-timeout or -load (not a run that waits forever or runs
// unloaded), and a -load above the bus's 10 Mbit/s. An unknown -algo prints nothing even when checked late, so
// its case also asks for the live status page, whose start line on
// stderr shows whether the flag was checked before anything started.
// A fault plan that drops messages needs -reliable in sync mode and in
// global_read mode without -read-timeout: either run deadlocks waiting
// for a lost message. A plan that duplicates messages needs -reliable
// in sync mode, whose barrier can read a copy of an old verdict.
func TestBadRunFlagsExitTwo(t *testing.T) {
	dir := t.TempDir()
	lossy := filepath.Join(dir, "lossy.json")
	if err := os.WriteFile(lossy, []byte(`{"loss":[{"from":0,"to":2,"prob":0.3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	dup := filepath.Join(dir, "dup.json")
	if err := os.WriteFile(dup, []byte(`{"duplicates":[{"from":0,"to":100,"prob":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-age", "-5"}, {"-mode", "sync", "-age", "-1"},
		{"-procs", "0"}, {"-procs", "-2", "-mode", "async"},
		{"-maxiters", "0"}, {"-maxiters", "-7"},
		{"-prec", "NaN", "-maxiters", "500"}, {"-prec", "0"}, {"-prec", "-1"},
		{"-batch", "-3", "-mode", "async"},
		{"-mode", "bogus"}, {"-algo", "bogus", "-http", "127.0.0.1:0"},
		{"-faults", "no-such-plan.json"},
		{"-read-timeout", "-5ms"}, {"-load", "-1"}, {"-load", "2e7"},
		{"-read-timeout", "-5ms", "-http", "127.0.0.1:0"},
		{"-mode", "sync", "-faults", lossy, "-http", "127.0.0.1:0"},
		{"-mode", "global_read", "-faults", lossy},
		{"-mode", "sync", "-net", "A", "-procs", "2", "-seed", "5", "-prec", "0.03", "-faults", dup},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "NSCC_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2\nstderr:\n%s", args, err, stderr.String())
			continue
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || strings.Contains(msg, "panic") {
			t.Errorf("%v: stderr is not one line:\n%s", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran before rejecting its flags:\n%s", args, stdout.String())
		}
	}
}

var updateHelp = flag.Bool("update-help", false, "rewrite testdata/help.txt from the command's -help output")

// TestHelpPin pins the command's flag surface, as -help prints it:
// every flag's name, type, default and usage line. The Usage line names
// the test binary, so it is normalized to the command's name.
func TestHelpPin(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-help")
	cmd.Env = append(os.Environ(), "NSCC_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("-help: %v\n%s", err, out)
	}
	got := regexp.MustCompile(`(?m)^Usage of .*:$`).ReplaceAllLiteral(out, []byte("Usage of nscc-bayes:"))
	pin := filepath.Join("testdata", "help.txt")
	if *updateHelp {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pin, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pin)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-help differs from %s (rerun with -update-help to re-pin):\n%s", pin, got)
	}
}
