package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with NSCC_RUN_MAIN set, so a test can observe its exit code.
func TestMain(m *testing.M) {
	if os.Getenv("NSCC_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadRunFlagsExitTwo checks that a flag value no run can use is one
// line on stderr and exit status 2, before the serial reference runs or
// prints: a negative -age (not a parallel run that deadlocks waiting for
// an iteration no writer reaches), a -procs or -maxiters below 1, an
// unknown -mode or -algo, an unreadable -faults file, a negative
// -read-timeout or -load (not a run that waits forever or runs
// unloaded), and a -load above the bus's 10 Mbit/s. An unknown -algo prints nothing even when checked late, so
// its case also asks for the live status page, whose start line on
// stderr shows whether the flag was checked before anything started.
func TestBadRunFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-age", "-5"}, {"-mode", "sync", "-age", "-1"},
		{"-procs", "0"}, {"-procs", "-2", "-mode", "async"},
		{"-maxiters", "0"}, {"-maxiters", "-7"},
		{"-mode", "bogus"}, {"-algo", "bogus", "-http", "127.0.0.1:0"},
		{"-faults", "no-such-plan.json"},
		{"-read-timeout", "-5ms"}, {"-load", "-1"}, {"-load", "2e7"},
		{"-read-timeout", "-5ms", "-http", "127.0.0.1:0"},
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
