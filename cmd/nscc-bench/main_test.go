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
		// The switch has no loss model: without the check this runs,
		// printing what it prints without -loss, and exits 0.
		{"-exp", "fig2", "-funcs", "1", "-procs", "2", "-trials", "1", "-gens", "20", "-switch", "-loss", "0.3"},
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
	got := regexp.MustCompile(`(?m)^Usage of .*:$`).ReplaceAllLiteral(out, []byte("Usage of nscc-bench:"))
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

// TestLossyRunsNeedReliable checks the drop rule: the plain transport
// never resends a lost frame, so a Sync cell's barrier waits for it
// forever. A dropping -faults plan or bus -loss without -reliable is
// therefore one stderr line naming -reliable and exit 2, before -http
// starts or anything runs, whenever the run includes a Sync cell:
// Figures 2-4, the age sweep, -exp all and the -trace-out demo. The
// scale sweep has none and runs. A plan that duplicates frames needs
// -reliable for the same runs: the plain transport delivers both
// copies, and a Sync barrier can read a stale copy.
func TestLossyRunsNeedReliable(t *testing.T) {
	dir := t.TempDir()
	lossy := filepath.Join(dir, "lossy.json")
	if err := os.WriteFile(lossy, []byte(`{"loss":[{"from":0,"to":2,"prob":0.3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	dup := filepath.Join(dir, "dup.json")
	if err := os.WriteFile(dup, []byte(`{"duplicates":[{"from":0,"to":100,"prob":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fig2 := []string{"-exp", "fig2", "-funcs", "1", "-procs", "2", "-trials", "1", "-gens", "20"}
	for _, args := range [][]string{
		append(fig2, "-loss", "0.3"),
		append(fig2, "-faults", lossy),
		{"-exp", "fig3", "-trials", "1", "-loss", "0.05", "-read-timeout", "50ms"},
		{"-exp", "fig3", "-trials", "1", "-faults", dup},
		{"-exp", "fig4", "-loss", "0.1"},
		{"-exp", "agesweep", "-faults", lossy},
		{"-loss", "0.1"},
		{"-trace-out", filepath.Join(dir, "t.json"), "-exp", "scale", "-loss", "0.1"},
	} {
		args = append([]string{"-http", "127.0.0.1:0"}, args...)
		stdout, stderr, code := runMain(t, args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2\nstderr:\n%s", args, code, stderr)
			continue
		}
		if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "-reliable") {
			t.Errorf("%v: stderr is not one line naming -reliable:\n%s", args, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: ran before rejecting its flags:\n%s", args, stdout)
		}
	}
	scale := []string{"-exp", "scale", "-nodes", "64", "-topologies", "gossip-ring", "-trials", "1", "-gens", "20", "-loss", "0.05"}
	if stdout, stderr, code := runMain(t, scale...); code != 0 || !strings.Contains(stdout, "== Scale sweep ==") {
		t.Errorf("%v: exit status %d, want a scale sweep\nstdout:\n%s\nstderr:\n%s", scale, code, stdout, stderr)
	}
}

// TestSimRaceOutNeedsAgeSweep checks that -simrace-out, whose report
// only the age sweep writes, is one stderr line and exit 2 unless the
// age sweep runs: -exp agesweep, or -exp all with -bench-out, without
// the -trace-out demo that replaces the suite. With the age sweep it
// writes the report.
func TestSimRaceOutNeedsAgeSweep(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "race.json")
	for _, args := range [][]string{
		{"-exp", "fig2", "-funcs", "1", "-procs", "2", "-trials", "1", "-gens", "20"},
		{"-exp", "all"},
		{"-exp", "agesweep", "-trace-out", filepath.Join(dir, "t.json")},
	} {
		args = append(args, "-http", "127.0.0.1:0", "-simrace", "-simrace-out", report)
		stdout, stderr, code := runMain(t, args...)
		if code != 2 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "-simrace-out") || stdout != "" {
			t.Errorf("%v: exit status %d, want 2 with one -simrace-out line\nstdout:\n%s\nstderr:\n%s", args, code, stdout, stderr)
		}
	}
	if _, err := os.Stat(report); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused run wrote %s: %v", report, err)
	}
	args := []string{"-exp", "agesweep", "-procs", "2", "-trials", "1", "-gens", "20", "-simrace", "-simrace-out", report}
	if stdout, stderr, code := runMain(t, args...); code != 0 || !strings.Contains(stdout, "wrote "+report) {
		t.Fatalf("%v: exit status %d, want the report written\nstdout:\n%s\nstderr:\n%s", args, code, stdout, stderr)
	}
	if _, err := os.Stat(report); err != nil {
		t.Fatal(err)
	}
}
