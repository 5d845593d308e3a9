package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runMainEnv makes the test binary run main with the arguments that
// follow "--" instead of the tests, so a test can check exit codes.
const runMainEnv = "GENWORKLOAD_TEST_RUN_MAIN"

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

// runMain runs main in a child process and returns its stderr and exit
// code.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stderr.String(), 0
	case errors.As(err, &exit):
		return stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", 0
}

// outputs returns the three output flags pointed into dir.
func outputs(dir string) []string {
	return []string{
		"-poi-out", filepath.Join(dir, "pois.csv"),
		"-journeys-out", filepath.Join(dir, "journeys.csv"),
		"-stream-out", filepath.Join(dir, "stream.csv"),
	}
}

var tinyScale = []string{"-pois", "200", "-passengers", "10", "-days", "1"}

// TestUsageErrorLeavesOutputsAlone: a bad scenario or scenario
// parameter exits 2 before anything is generated, so an output file
// that was already there is left byte for byte as it was.
func TestUsageErrorLeavesOutputsAlone(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "bogus"},
		{"-scenario", "stream", "-base-fraction", "1.5"},
		{"-scenario", "country", "-cities", "0"},
	} {
		dir := t.TempDir()
		pois := filepath.Join(dir, "pois.csv")
		old := []byte("id,name,lon,lat,category\n")
		if err := os.WriteFile(pois, old, 0o644); err != nil {
			t.Fatal(err)
		}
		stderr, code := runMain(t, append(append(args, tinyScale...), outputs(dir)...)...)
		if code != exitUsage {
			t.Errorf("%v: exit %d, want %d (%s)", args, code, exitUsage, stderr)
		}
		if got, err := os.ReadFile(pois); err != nil || !bytes.Equal(got, old) {
			t.Errorf("%v: pois.csv changed (err %v)", args, err)
		}
		for _, f := range []string{"journeys.csv", "stream.csv"} {
			if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
				t.Errorf("%v: %s was written", args, f)
			}
		}
	}
}

// TestBatchWritesBothFiles: a tiny batch run exits 0 and writes a
// non-empty POI file and journey file.
func TestBatchWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	if stderr, code := runMain(t, append(tinyScale, outputs(dir)...)...); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, f := range []string{"pois.csv", "journeys.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written (err %v)", f, err)
		}
	}
}
