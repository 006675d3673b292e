package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with NSCC_RUN_MAIN set, so a test can observe its output and exit
// code.
func TestMain(m *testing.M) {
	if os.Getenv("NSCC_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-executes the command with args and returns its stdout,
// its stderr and its exit code.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NSCC_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("%v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// edgeFile writes a 12-vertex edge list, a ring with chords, and
// returns its path.
func edgeFile(t *testing.T) string {
	t.Helper()
	var doc strings.Builder
	doc.WriteString("n 12\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&doc, "%d %d 1\n%d %d 2.5\n", i, (i+1)%12, i, (i+5)%12)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(doc.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBadProcsExitTwo checks that a -procs below 1 or above a
// topology's vertex count is one line on stderr and exit status 2,
// before the sequential oracle runs or any header prints.
func TestBadProcsExitTwo(t *testing.T) {
	edges := edgeFile(t)
	for _, args := range [][]string{
		{"-procs", "0"},
		{"-procs", "-2", "-topo", "ring:12"},
		{"-topo", "ring:12", "-procs", "13"},
		{"-topo", "ring:48,ring:12", "-procs", "13"},
		{"-procs", "49"}, // the default matrix's graphs have 48 vertices
		{"-edges", edges, "-procs", "13"},
	} {
		stdout, stderr, code := runMain(t, args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2\nstderr:\n%s", args, code, stderr)
			continue
		}
		if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "-procs") {
			t.Errorf("%v: stderr is not one -procs line:\n%s", args, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: ran before rejecting its flags:\n%s", args, stdout)
		}
	}
}

// TestBadRunFlagsExitTwo checks that a negative -trials, -read-timeout
// or -workers, each of which would otherwise run a sweep with a default
// or an unbounded setting, an unreadable -faults file, -resume without
// a cache and too many -procs for a topology are one line on stderr
// naming the flag and exit status 2, before any simulation prints.
// With -http every check comes before the server starts, whose start
// line would be a second.
func TestBadRunFlagsExitTwo(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, args := range [][]string{
		{"-topo", "ring:12", "-trials", "-1"},
		{"-topo", "ring:12", "-read-timeout", "-5ms"},
		{"-topo", "ring:12", "-workers", "-2"},
		{"-edges", edgeFile(t), "-procs", "2", "-read-timeout", "-1ns"},
		{"-http", "127.0.0.1:0", "-topo", "ring:12", "-trials", "-1"},
		{"-http", "127.0.0.1:0", "-topo", "ring:12", "-faults", missing},
		{"-http", "127.0.0.1:0", "-topo", "ring:12", "-resume", "-cache-dir="},
		{"-http", "127.0.0.1:0", "-topo", "ring:12", "-procs", "13"},
		{"-http", "127.0.0.1:0", "-edges", edgeFile(t), "-procs", "13"},
	} {
		stdout, stderr, code := runMain(t, args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2\nstderr:\n%s", args, code, stderr)
			continue
		}
		flagName := args[len(args)-2]
		if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, flagName) {
			t.Errorf("%v: stderr is not one %s line:\n%s", args, flagName, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: ran before rejecting its flags:\n%s", args, stdout)
		}
	}
}

// TestEdgesHonorNetworkFlags checks that a file-loaded topology runs
// on the network the flags select, as -topo does: -switch and -loss
// each change the report.
func TestEdgesHonorNetworkFlags(t *testing.T) {
	edges := edgeFile(t)
	report := func(args ...string) string {
		t.Helper()
		stdout, stderr, code := runMain(t, append([]string{"-edges", edges, "-procs", "2"}, args...)...)
		if code != 0 {
			t.Fatalf("%v: exit status %d\nstderr:\n%s", args, code, stderr)
		}
		return stdout
	}
	if plain, sw := report(), report("-switch"); sw == plain {
		t.Errorf("-switch left the report unchanged:\n%s", plain)
	}
	// Loss stalls the sync barrier unless delivery is reliable.
	if plain, lossy := report("-reliable"), report("-reliable", "-loss", "0.05"); lossy == plain {
		t.Errorf("-loss left the report unchanged:\n%s", plain)
	}
}
