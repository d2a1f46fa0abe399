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
		if code := run([]string{"-exp", exp, "-o", out}, &bytes.Buffer{}); code != 2 {
			t.Fatalf("-exp %s: exit %d, want 2", exp, code)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "earlier results\n" {
			t.Fatalf("-exp %s: output file now holds %q", exp, got)
		}
	}
}

func TestOutputGoesToFileOrStdout(t *testing.T) {
	out := filepath.Join(t.TempDir(), "results.txt")
	var stdout bytes.Buffer
	if code := run(append([]string{"-exp", "seg", "-o", out}, quick...), &stdout); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "(completed in ") || stdout.Len() != 0 {
		t.Fatalf("file holds %q, stdout %q", got, stdout.String())
	}
	if code := run(append([]string{"-exp", "seg"}, quick...), &stdout); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(stdout.String(), "(completed in ") {
		t.Fatalf("stdout = %q", stdout.String())
	}
}

// A write that fails must not end in exit status 0.
func TestWriteFailureExitsNonZero(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	if code := run(append([]string{"-exp", "seg", "-o", "/dev/full"}, quick...), &bytes.Buffer{}); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}
