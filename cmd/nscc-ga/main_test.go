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
// line on stderr and exit status 2, not a panic or a simulation that
// deadlocks, and that it comes before the serial baseline runs. The
// -http cases need every check before the server starts, whose start
// line would be a second; a negative -read-timeout or -load must be
// rejected, not run as "wait forever" or as no load, and so must a
// -load above the bus's 10 Mbit/s or below 1 bit/s, whose send
// interval overflows the clock and never advances it. A fault plan
// that drops messages needs -reliable: without it the Sync run (the
// quality target's, in the other modes) deadlocks on its barrier. And
// -hier with -switch names two fabrics for one run. A value the run
// would otherwise clamp or drop is refused too: an -interval below 1,
// a negative -window, -rack-size without -hier, and -dynage outside
// global_read mode.
func TestBadRunFlagsExitTwo(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	lossy := filepath.Join(t.TempDir(), "lossy.json")
	if err := os.WriteFile(lossy, []byte(`{"loss":[{"from":0,"to":2,"prob":0.3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-func", "0"}, {"-func", "9"}, {"-procs", "0"}, {"-procs", "-3"}, {"-gens", "0"},
		{"-age", "-5"}, {"-mode", "async", "-age", "-1"}, {"-hier", "-rack-size", "-4"},
		{"-http", "127.0.0.1:0", "-procs", "4", "-gens", "20", "-hier", "-switch"},
		{"-read-timeout", "-5ms"}, {"-load", "-1"}, {"-load", "2e7"}, {"-load", "1e-7"},
		{"-http", "127.0.0.1:0", "-mode", "bogus"},
		{"-http", "127.0.0.1:0", "-topology", "bogus"},
		{"-http", "127.0.0.1:0", "-faults", missing},
		{"-http", "127.0.0.1:0", "-read-timeout", "-5ms"},
		{"-http", "127.0.0.1:0", "-faults", lossy},
		{"-mode", "async", "-faults", lossy, "-read-timeout", "50ms"},
		{"-interval", "0"}, {"-interval", "-3"}, {"-window", "-1"}, {"-rack-size", "4"},
		{"-dynage", "-mode", "sync"}, {"-dynage", "-mode", "async"},
		{"-http", "127.0.0.1:0", "-interval", "0"},
		{"-http", "127.0.0.1:0", "-dynage", "-mode", "async"},
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
	got := regexp.MustCompile(`(?m)^Usage of .*:$`).ReplaceAllLiteral(out, []byte("Usage of nscc-ga:"))
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
