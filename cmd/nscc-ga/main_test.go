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

// TestBadRunFlagsExitTwo checks that a flag value no run can use is one
// line on stderr and exit status 2, not a panic or a simulation that
// deadlocks, and that it comes before the serial baseline runs. The
// -http cases need every check before the server starts, whose start
// line would be a second; a negative -read-timeout or -load must be
// rejected, not run as "wait forever" or as no load, and so must a
// -load above the bus's 10 Mbit/s.
func TestBadRunFlagsExitTwo(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, args := range [][]string{
		{"-func", "0"}, {"-func", "9"}, {"-procs", "0"}, {"-procs", "-3"}, {"-gens", "0"},
		{"-age", "-5"}, {"-mode", "async", "-age", "-1"}, {"-hier", "-rack-size", "-4"},
		{"-read-timeout", "-5ms"}, {"-load", "-1"}, {"-load", "2e7"},
		{"-http", "127.0.0.1:0", "-mode", "bogus"},
		{"-http", "127.0.0.1:0", "-topology", "bogus"},
		{"-http", "127.0.0.1:0", "-faults", missing},
		{"-http", "127.0.0.1:0", "-read-timeout", "-5ms"},
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
