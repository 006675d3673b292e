package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// TestBadFlagsExitTwo checks that a flag value no run can use is one
// line on stderr and exit status 2 with nothing on stdout. Each case
// runs with -http, whose start line would be a second stderr line, so
// every check must come before the server starts; negative counts and
// timeouts must be rejected, not run as the defaults or as "wait
// forever".
func TestBadFlagsExitTwo(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, args := range [][]string{
		{"-loss", "2"}, {"-loss", "-0.1"},
		{"-procs", "x"}, {"-funcs", "9"}, {"-nodes", "0"}, {"-topologies", "bogus"},
		{"-exp", "bogus"}, {"-exp", "micro"}, {"-profile", "bogus"},
		{"-faults", missing},
		{"-read-timeout", "-5ms"},
		{"-trials", "-3", "-workers", "-2"}, {"-workers", "-2"}, {"-gens", "-1"},
		{"-simrace-out", "race.json"}, {"-resume"},
	} {
		args = append([]string{"-http", "127.0.0.1:0"}, args...)
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
