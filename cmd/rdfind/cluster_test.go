package main

import (
	"os"
	"strings"
	"testing"
	"time"

	rdfind "repro"
)

// TestMain lets the test binary double as the worker executable: the cluster
// coordinator respawns workers by exec'ing os.Executable() with a "worker"
// subcommand, and under `go test` that executable is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestParseChaos(t *testing.T) {
	faults, err := parseChaos("kill:1@3, drop:0@2,delay:0@1:120ms,delay:1@2")
	if err != nil {
		t.Fatal(err)
	}
	want := []rdfind.ProcFault{
		{Kind: rdfind.ProcKill, Rank: 1, Seq: 3},
		{Kind: rdfind.ProcDisconnect, Rank: 0, Seq: 2},
		{Kind: rdfind.ProcDelay, Rank: 0, Seq: 1, Delay: 120 * time.Millisecond},
		{Kind: rdfind.ProcDelay, Rank: 1, Seq: 2, Delay: 50 * time.Millisecond},
	}
	if len(faults) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(faults), len(want))
	}
	for i := range want {
		if faults[i] != want[i] {
			t.Errorf("fault %d: got %+v, want %+v", i, faults[i], want[i])
		}
	}
	if f, err := parseChaos(""); err != nil || f != nil {
		t.Errorf("empty spec: %v, %v", f, err)
	}
	for _, bad := range []string{"boom:1@2", "dup:1@5", "kill:1", "kill:x@2", "kill:1@y", "kill:-1@2", "delay:0@1:xs"} {
		if _, err := parseChaos(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

func TestClusterFlagValidation(t *testing.T) {
	for _, n := range []string{"-1", "1025"} {
		code, _, errOut := runCLI(t, "-cluster", n, "testdata/museums.nt")
		if code != exitUsage || !strings.Contains(errOut, "-cluster "+n+" outside [0, 1024]") {
			t.Errorf("-cluster %s: exit %d, stderr %q; want %d naming the flag and its range", n, code, errOut, exitUsage)
		}
	}
	if code, _, _ := runCLI(t, "-chaos", "kill:1@3", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("-chaos without -cluster exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-cluster", "2", "-chaos", "dup:1@3", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("-chaos with the removed dup kind exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-cluster", "2", "-cluster-network", "carrier-pigeon", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("bad -cluster-network exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-cluster", "2", "-check", "x <= y", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("-cluster with -check exit %d, want %d", code, exitUsage)
	}
}

// TestClusterMatchesSingleProcess runs real multi-process discovery —
// coordinator plus exec'd worker subprocesses — and requires byte-identical
// stdout vs the single-process run, across worker counts and both networks.
func TestClusterMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	base := []string{"-support", "2", "testdata/museums.nt"}
	code, want, errOut := runCLI(t, base...)
	if code != exitOK {
		t.Fatalf("single-process exit %d: %s", code, errOut)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"workers=1", []string{"-cluster", "1"}},
		{"workers=2", []string{"-cluster", "2"}},
		{"workers=4", []string{"-cluster", "4"}},
		{"tcp", []string{"-cluster", "2", "-cluster-network", "tcp"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, got, errOut := runCLI(t, append(tc.args, base...)...)
			if code != exitOK {
				t.Fatalf("cluster exit %d: %s", code, errOut)
			}
			if got != want {
				t.Errorf("cluster output diverged from single-process:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestClusterChaosRecovery injects process faults into real worker
// subprocesses. Every seeded plan must finish with exit 0 and byte-identical
// output; the kill plans must recover by respawn + lineage replay.
func TestClusterChaosRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	base := []string{"-support", "2", "testdata/museums.nt"}
	code, want, errOut := runCLI(t, base...)
	if code != exitOK {
		t.Fatalf("single-process exit %d: %s", code, errOut)
	}
	for _, tc := range []struct {
		name  string
		chaos string
	}{
		{"kill", "kill:1@3"},
		{"drop", "drop:0@2"},
		{"drop+delay", "drop:1@3,delay:0@2:20ms"},
		{"kills-two-ranks", "kill:0@2,kill:1@4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-cluster", "2", "-chaos", tc.chaos}, base...)
			code, got, errOut := runCLI(t, args...)
			if code != exitOK {
				t.Fatalf("chaos %q exit %d: %s", tc.chaos, code, errOut)
			}
			if got != want {
				t.Errorf("chaos %q output diverged:\n--- got ---\n%s--- want ---\n%s", tc.chaos, got, want)
			}
		})
	}
}

// TestClusterStatsReportRecovery checks the -stats surface: an injected kill
// or drop shows up as a worker loss and a respawn.
func TestClusterStatsReportRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	for _, chaos := range []string{"kill:1@3", "drop:1@3"} {
		args := []string{"-cluster", "2", "-chaos", chaos, "-stats", "-support", "2", "testdata/museums.nt"}
		code, _, errOut := runCLI(t, args...)
		if code != exitOK {
			t.Fatalf("-chaos %s: exit %d: %s", chaos, code, errOut)
		}
		if want := "worker losses:       1 (1 respawned)"; !strings.Contains(errOut, want) {
			t.Errorf("-chaos %s: stats output lacks %q:\n%s", chaos, want, errOut)
		}
	}
}
