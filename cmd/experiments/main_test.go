package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run main with the arguments that
// follow "--" instead of the tests, so a test can check exit codes.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append(os.Args[:1], os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs main in a child process and returns its stdout, stderr
// and exit code.
func runMain(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

var tinyScale = []string{"-pois", "300", "-passengers", "20", "-days", "1"}

// TestUnknownExperimentIsUsageError: -exp takes exact exhibit names. A
// prefix of one ("fig1") or any other name exits 2 with the known list
// before the synthetic city is generated.
func TestUnknownExperimentIsUsageError(t *testing.T) {
	for _, name := range []string{"fig1", "table", "nope"} {
		stdout, stderr, code := runMain(t, append([]string{"-exp", name}, tinyScale...)...)
		if code != 2 {
			t.Errorf("-exp %s: exit %d, want 2", name, code)
		}
		if stdout != "" {
			t.Errorf("-exp %s: ran before rejecting the name: %q", name, stdout)
		}
		if !strings.Contains(stderr, exhibitNames()) {
			t.Errorf("-exp %s: stderr %q lacks the known list", name, stderr)
		}
	}
}

// TestSelectedExperimentRunsAlone: an exact name runs that exhibit
// and no other.
func TestSelectedExperimentRunsAlone(t *testing.T) {
	stdout, stderr, code := runMain(t, append([]string{"-exp", "table3"}, tinyScale...)...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "[table3 done in") || strings.Contains(stdout, "[table1 done in") {
		t.Errorf("-exp table3 ran the wrong exhibits:\n%s", stdout)
	}
}
