package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunListMode(t *testing.T) {
	if err := run("", true, 16, 0, "", "", false, false, 0, 0, nil); err != nil {
		t.Fatalf("list mode: %v", err)
	}
}

func TestRunRequiresID(t *testing.T) {
	if err := run("", false, 16, 0, "", "", false, false, 0, 0, nil); err == nil {
		t.Error("missing -run accepted")
	}
}

// TestRunUnknownID: a bad id fails before -out is touched, so an existing
// file comes back byte-identical, and the error carries no prefix of its
// own for main's "experiments:" to double.
func TestRunUnknownID(t *testing.T) {
	out := filepath.Join(t.TempDir(), "results.txt")
	want := []byte("# committed results\n")
	if err := os.WriteFile(out, want, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run("bogus", false, 16, 0, "", out, false, false, 0, 0, nil)
	if err == nil {
		t.Fatal("unknown experiment id accepted")
	}
	if line := fmt.Sprintln("experiments:", err); strings.Count(line, "experiments:") != 1 {
		t.Errorf("error line %q repeats the command prefix", line)
	}
	got, rerr := os.ReadFile(out)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-out after a bad id = %q, want it untouched: %q", got, want)
	}
}

func TestRunBadPs(t *testing.T) {
	if err := run("t3", false, 128, 0, "0.5,abc", "", false, false, 0, 0, nil); err == nil {
		t.Error("malformed -ps accepted")
	}
}

func TestRunOneExperimentToFile(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	out := filepath.Join(t.TempDir(), "t3.txt")
	if err := run("t3", false, 128, 0, "0.5", out, true, false, 0, 0, nil); err != nil {
		t.Fatalf("run t3: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Table III") {
		t.Errorf("output missing Table III header:\n%s", data)
	}
}

func TestRunMarkdownMode(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	out := filepath.Join(t.TempDir(), "t3.md")
	if err := run("t3", false, 128, 0, "0.5", out, true, true, 0, 0, nil); err != nil {
		t.Fatalf("run t3 -md: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "| p") || !strings.Contains(string(data), "|---|") {
		t.Errorf("markdown table markers missing:\n%s", data)
	}
}
