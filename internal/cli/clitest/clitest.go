// Package clitest is the table-driven golden harness of the cmd/*
// tools: each case is an argument list run through cli.Main and a
// testdata/<name>.golden file holding the expected stdout. Run a
// command's tests with -update (or `make golden`) to re-record its
// files from the current build.
package clitest

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fattree/internal/cli"
)

var update = flag.Bool("update", false, "re-record testdata/*.golden from the current build")

// Case is one invocation. A missing golden file means empty stdout.
type Case struct {
	// Name is the subtest name; Golden, when set, names another case's
	// file — two spellings that must print the same bytes.
	Name, Golden string
	Args         []string
	// Exit is the expected exit code; Stderr, when set, must appear on
	// standard error.
	Exit   int
	Stderr string
}

// Run drives every case through cli.Main with the command's setup.
func Run(t *testing.T, name string, setup func(*cli.App) func(io.Writer) error, cases []Case) {
	t.Helper()
	RunMain(t, func(args []string, stdout, stderr io.Writer) int {
		return cli.Main(name, args, stdout, stderr, setup)
	}, cases)
}

// RunMain is Run for a command that dispatches subcommands itself.
func RunMain(t *testing.T, main func(args []string, stdout, stderr io.Writer) int, cases []Case) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := main(tc.Args, &stdout, &stderr); code != tc.Exit {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, tc.Exit, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.Stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.Stderr)
			}
			file := tc.Golden
			if file == "" {
				file = tc.Name
			}
			path := filepath.Join("testdata", file+".golden")
			if *update && tc.Golden == "" {
				if err := record(path, stdout.Bytes()); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			got := stdout.Bytes()
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from %s (re-record with -update if intended)\n--- got\n%s--- want\n%s", path, clip(got), clip(want))
			}
		})
	}
}

// record writes a golden file; empty output is recorded as no file.
func record(path string, out []byte) error {
	if len(out) == 0 {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// clip keeps a failure message readable when a large document differs.
func clip(b []byte) []byte {
	if len(b) > 4000 {
		return append(b[:4000:4000], "...\n"...)
	}
	return b
}
