package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// splitNT splits an N-Triples file into n sequential part files in a fresh
// temp dir and returns the dir. Part names sort in split order, so the
// canonical document order of the parts equals the original file.
func splitNT(t *testing.T, path string, n int) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(data), "\n")+"\n", "\n")
	lines = lines[:len(lines)-1] // drop the empty tail
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		lo, hi := i*len(lines)/n, (i+1)*len(lines)/n
		part := filepath.Join(dir, fmt.Sprintf("part-%02d.nt", i))
		if err := os.WriteFile(part, []byte(strings.Join(lines[lo:hi], "")), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestInputGlobMultiFile pins that the same statements split across files —
// named by an -input glob or by positional paths — produce byte-identical
// output to the single-file run.
func TestInputGlobMultiFile(t *testing.T) {
	code, want, errOut := runCLI(t, "-support", "2", "-workers", "1", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("baseline exit %d: %s", code, errOut)
	}
	dir := splitNT(t, "testdata/museums.nt", 3)

	code, out, errOut := runCLI(t, "-support", "2", "-workers", "1",
		"-input", filepath.Join(dir, "part-*.nt"))
	if code != exitOK {
		t.Fatalf("glob exit %d: %s", code, errOut)
	}
	if out != want {
		t.Errorf("glob ingest diverged from single file:\n got: %q\nwant: %q", out, want)
	}

	code, out, errOut = runCLI(t, "-support", "2", "-workers", "1",
		filepath.Join(dir, "part-00.nt"), filepath.Join(dir, "part-01.nt"), filepath.Join(dir, "part-02.nt"))
	if code != exitOK {
		t.Fatalf("positional exit %d: %s", code, errOut)
	}
	if out != want {
		t.Errorf("positional multi-file ingest diverged:\n got: %q\nwant: %q", out, want)
	}

	// Duplicate naming (glob plus an explicit member) must not double-read.
	code, out, errOut = runCLI(t, "-support", "2", "-workers", "1",
		"-input", filepath.Join(dir, "part-*.nt"), filepath.Join(dir, "part-01.nt"))
	if code != exitOK {
		t.Fatalf("dedup exit %d: %s", code, errOut)
	}
	if out != want {
		t.Errorf("duplicate input naming changed the output:\n got: %q\nwant: %q", out, want)
	}
}

// TestLenientTurtleUsageError pins the explicit rejection of -lenient on
// Turtle input: the Turtle reader has no line-oriented recovery, so the flag
// must fail loudly rather than be silently ignored.
func TestLenientTurtleUsageError(t *testing.T) {
	code, _, errOut := runCLI(t, "-lenient", "testdata/museums.ttl")
	if code != exitUsage {
		t.Fatalf("exit %d, want %d (usage)", code, exitUsage)
	}
	if !strings.Contains(errOut, "lenient") {
		t.Errorf("stderr %q does not explain the lenient/Turtle conflict", errOut)
	}
	// Forcing Turtle on an .nt path must hit the same check.
	code, _, _ = runCLI(t, "-lenient", "-input-format", "turtle", "testdata/museums.nt")
	if code != exitUsage {
		t.Errorf("-input-format turtle: exit %d, want %d", code, exitUsage)
	}
}

// TestClusterIngestStats runs worker-local ingest over split input and checks
// the -stats accounting: every rank reports its ingested triples, the
// coordinator reports zero materialized triples, and stdout stays identical
// to the single-process run over the unsplit file.
func TestClusterIngestStats(t *testing.T) {
	code, want, errOut := runCLI(t, "-support", "2", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("baseline exit %d: %s", code, errOut)
	}
	dir := splitNT(t, "testdata/museums.nt", 2)
	code, out, errOut := runCLI(t, "-cluster", "2", "-stats", "-support", "2",
		"-input", filepath.Join(dir, "part-*.nt"))
	if code != exitOK {
		t.Fatalf("cluster exit %d: %s", code, errOut)
	}
	if out != want {
		t.Errorf("cluster output diverged:\n got: %q\nwant: %q", out, want)
	}
	for _, line := range []string{
		"ingest:              2 files\n",
		"ingest rank 0:",
		"ingest rank 1:",
		"coordinator materialized: 0 triples",
	} {
		if !strings.Contains(errOut, line) {
			t.Errorf("stats missing %q:\n%s", line, errOut)
		}
	}
}
