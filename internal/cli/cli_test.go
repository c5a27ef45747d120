package cli

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodeRule: 0 on success, 2 on a bad command line, 1 with a
// "name: err" line on a body error, a bare 1 on ErrFailed.
func TestExitCodeRule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		err    error
		code   int
		stderr string
	}{
		{name: "ok", code: 0},
		{name: "bad flag", args: []string{"-nope"}, code: 2, stderr: "flag provided but not defined: -nope"},
		{name: "help", args: []string{"-h"}, code: 0, stderr: "Usage of tool:"},
		{name: "error", err: errors.New("boom"), code: 1, stderr: "tool: boom\n"},
		{name: "failed verdict", err: fmt.Errorf("gate: %w", ErrFailed), code: 1},
	} {
		var stdout, stderr bytes.Buffer
		code := Main("tool", tc.args, &stdout, &stderr, func(a *App) func(io.Writer) error {
			a.Topo("324")
			return func(w io.Writer) error {
				fmt.Fprintln(w, "ran")
				return tc.err
			}
		})
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
		if tc.stderr == "" && stderr.Len() > 0 || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr %q, want %q", tc.name, stderr.String(), tc.stderr)
		}
		if ran := stdout.String() == "ran\n"; ran != (len(tc.args) == 0) {
			t.Errorf("%s: body ran = %v", tc.name, ran)
		}
	}
}

// TestEngineList: one printer for every tool, answered before the body.
func TestEngineList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main("tool", []string{"-engine", "list"}, &stdout, &stderr, func(a *App) func(io.Writer) error {
		a.Engine()
		return func(io.Writer) error { return errors.New("body ran") }
	})
	if code != 0 || stderr.Len() > 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	want := "dmodk            lft,fault-aware paper's D-Mod-K"
	if !strings.HasPrefix(stdout.String(), want) || !strings.Contains(stdout.String(), "\nsmodk                          source-based") {
		t.Fatalf("unexpected listing:\n%s", stdout.String())
	}
}

// TestLifecycleOnEveryPath: the sinks and profiles Main opened are
// flushed and closed whether the body succeeds or fails, and a failure
// to open them is reported without running the body.
func TestLifecycleOnEveryPath(t *testing.T) {
	for _, bodyErr := range []error{nil, errors.New("boom")} {
		dir := t.TempDir()
		metrics, trace, cpu := filepath.Join(dir, "m.jsonl"), filepath.Join(dir, "t.json"), filepath.Join(dir, "cpu.prof")
		var stderr bytes.Buffer
		code := Main("tool", []string{"-metrics", metrics, "-trace", trace, "-cpuprofile", cpu}, io.Discard, &stderr,
			func(a *App) func(io.Writer) error {
				sinks := a.Sinks()
				a.Profile()
				return func(io.Writer) error {
					if sinks.Registry == nil || sinks.Tracer == nil {
						t.Error("sinks not open when the body runs")
					}
					return bodyErr
				}
			})
		if want := map[bool]int{true: 0, false: 1}[bodyErr == nil]; code != want {
			t.Errorf("body error %v: exit %d, want %d (%s)", bodyErr, code, want, stderr.String())
		}
		if raw, err := os.ReadFile(metrics); err != nil || !bytes.Contains(raw, []byte(`"snapshot"`)) {
			t.Errorf("body error %v: metrics stream not closed with its snapshot: %q, %v", bodyErr, raw, err)
		}
		if raw, err := os.ReadFile(trace); err != nil || !bytes.HasSuffix(bytes.TrimSpace(raw), []byte("]}")) {
			t.Errorf("body error %v: trace document not terminated: %q, %v", bodyErr, raw, err)
		}
		if st, err := os.Stat(cpu); err != nil || st.Size() == 0 {
			t.Errorf("body error %v: CPU profile not written: %v", bodyErr, err)
		}
	}

	var stderr bytes.Buffer
	code := Main("tool", []string{"-metrics", filepath.Join(t.TempDir(), "missing", "m.jsonl")}, io.Discard, &stderr,
		func(a *App) func(io.Writer) error {
			a.Sinks()
			return func(io.Writer) error { t.Error("body ran without its sinks"); return nil }
		})
	if code != 1 || !strings.HasPrefix(stderr.String(), "tool: metrics:") {
		t.Errorf("unopenable sink: exit %d, stderr %q", code, stderr.String())
	}
}

// TestDropActive: the one seeded -drop draw.
func TestDropActive(t *testing.T) {
	if a, err := (&Drop{}).Active(8); a != nil || err != nil {
		t.Fatalf("no drop: %v, %v", a, err)
	}
	d := &Drop{N: 3, Seed: 5}
	a, err := d.Active(8)
	if err != nil || len(a) != 5 {
		t.Fatalf("drop 3 of 8: %v, %v", a, err)
	}
	seen := map[int]bool{}
	for _, h := range a {
		if h < 0 || h >= 8 || seen[h] {
			t.Fatalf("bad survivor set %v", a)
		}
		seen[h] = true
	}
	if b, _ := d.Active(8); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("draw not deterministic: %v vs %v", a, b)
	}
	if _, err := (&Drop{N: 8}).Active(8); err == nil {
		t.Fatal("dropping every end-port accepted")
	}
}

// TestBuildTopo: spec errors come back as errors.
func TestBuildTopo(t *testing.T) {
	tp, err := BuildTopo("rlft2:4,8")
	if err != nil || tp.NumHosts() != 32 || tp.Spec.H != 2 {
		t.Fatalf("rlft2:4,8: %v, %v", tp, err)
	}
	if _, err := BuildTopo("nope"); err == nil {
		t.Fatal("bad spec accepted")
	}
}
