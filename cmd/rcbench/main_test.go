package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seg at this scale renders in well under a second.
var quick = []string{"-scale", "0.02", "-j", "1"}

func TestUnknownExperimentLeavesOutputFile(t *testing.T) {
	for _, exp := range []string{"typo", "seg,typo"} {
		out := filepath.Join(t.TempDir(), "results.txt")
		if err := os.WriteFile(out, []byte("earlier results\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		if code := run([]string{"-exp", exp, "-o", out}, &bytes.Buffer{}, &stderr); code != 2 {
			t.Fatalf("-exp %s: exit %d, want 2", exp, code)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "earlier results\n" {
			t.Fatalf("-exp %s: output file now holds %q", exp, got)
		}
		if !strings.Contains(stderr.String(), `unknown experiment "typo"`) {
			t.Fatalf("-exp %s: stderr = %q", exp, stderr.String())
		}
	}
}

// The renderings go to the -o file or to stdout, and nothing else does:
// the timings go to stderr.
func TestOutputGoesToFileOrStdout(t *testing.T) {
	out := filepath.Join(t.TempDir(), "results.txt")
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-exp", "seg", "-o", out}, quick...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	file, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(file) == 0 || strings.Contains(string(file), "(completed in") || stdout.Len() != 0 {
		t.Fatalf("file holds %q, stdout %q", file, stdout.String())
	}
	if !strings.Contains(stderr.String(), "completed in") {
		t.Fatalf("stderr = %q", stderr.String())
	}

	stderr.Reset()
	if code := run(append([]string{"-exp", "seg"}, quick...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if stdout.String() != string(file) {
		t.Fatalf("stdout differs from the -o file:\n%q\n%q", stdout.String(), file)
	}
	if !strings.Contains(stderr.String(), "completed in") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}

// Prewarming on a pool must not change a byte of the renderings, and its
// report goes to stderr with the other timings.
func TestStdoutSameAtAnyParallelism(t *testing.T) {
	args := []string{"-exp", "seg,fig1a", "-scale", "0.02", "-seed", "42"}
	render := func(j string) (string, string) {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-j", j), &stdout, &stderr); code != 0 {
			t.Fatalf("-j %s: exit %d, stderr %q", j, code, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	serial, _ := render("1")
	parallel, timings := render("4")
	if serial != parallel {
		t.Fatalf("stdout differs between -j 1 and -j 4:\n%s\n---\n%s", serial, parallel)
	}
	if strings.Contains(parallel, "wall clock") {
		t.Fatalf("stdout holds timings: %q", parallel)
	}
	if !strings.Contains(timings, "(prewarmed 2 of 2 experiments on 4 workers") {
		t.Fatalf("stderr = %q", timings)
	}
}

// A write that fails must not end in exit status 0.
func TestWriteFailureExitsNonZero(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	if code := run(append([]string{"-exp", "seg", "-o", "/dev/full"}, quick...), &bytes.Buffer{}, &bytes.Buffer{}); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}
