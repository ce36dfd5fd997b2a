// Package clitest runs a command's main in a child process of the command's
// own test binary, so tests can check what a command-line invocation
// prints and how it exits (flag.ExitOnError's exit 2, for instance)
// without building the command separately.
package clitest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// envVar tells a test binary started by Run to act as the command.
const envVar = "XEDSIM_CLITEST_RUN_MAIN"

// Main is a TestMain body: in a child started by Run it calls main, which
// parses the child's arguments, and exits 0 if main returns; otherwise it
// runs the tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(envVar) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run starts the test binary as the command with args and returns its exit
// code and standard error.
func Run(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), envVar+"=1")
	var buf bytes.Buffer
	cmd.Stderr = &buf
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, buf.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), buf.String()
	}
	t.Fatalf("running %v: %v", args, err)
	return 0, ""
}

// RejectsFlag fails t unless the command, run with args, exits 2 reporting
// flag as undefined.
func RejectsFlag(t *testing.T, flag string, args ...string) {
	t.Helper()
	code, stderr := Run(t, args...)
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
		t.Fatalf("%v: exit %d, stderr:\n%s\nwant exit 2 rejecting %s", args, code, stderr, flag)
	}
}
