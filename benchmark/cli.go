package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// childTimeout bounds one run of the program; a run that exceeds it counts
// as failed.
const childTimeout = 60 * time.Second

// buildCLI compiles cmd/rdfind from the checkout's source into the work
// directory and returns the binary's path.
func buildCLI(root, work string) (string, float64, error) {
	bin := filepath.Join(work, "bin", "rdfind")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rdfind")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/rdfind: %v\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// childRun is what one plain run of the CLI cost, as its user would see it.
type childRun struct {
	WallS  float64 // exec to exit
	RSSMB  float64 // wait4 rusage: the largest peak of any process of the run
	CPUS   float64 // user + system, all processes of the run
	Stdout string  // path of the captured standard output
	SHA256 string  // of that output
}

// prSetChildSubreaper is PR_SET_CHILD_SUBREAPER of <linux/prctl.h>.
const prSetChildSubreaper = 36

// becomeSubreaper makes this process the parent of any descendant whose own
// parent exits first. A -cluster coordinator may exit before it has waited
// for its workers; wait4 then bills their CPU time and peak RSS to nobody.
// As subreaper the benchmark inherits such workers and collects their rusage
// itself, so a run's cost does not depend on who reaped whom.
var becomeSubreaper = sync.OnceValue(func() error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %v", errno)
	}
	return nil
})

// runCLI runs the program once with tracing off: standard output to a file,
// timed from exec to exit. dir is the child's working directory; its
// temporary files go to dir/tmp, given as a relative path so that the unix
// socket of a -cluster run stays within the 108-byte limit however deep the
// checkout sits.
func runCLI(bin, dir, outName string, args ...string) (childRun, error) {
	if err := becomeSubreaper(); err != nil {
		return childRun{}, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return childRun{}, err
	}
	outPath := filepath.Join(dir, outName)
	out, err := os.Create(outPath)
	if err != nil {
		return childRun{}, err
	}
	defer out.Close()

	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TMPDIR=tmp")
	cmd.Stdout = out
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	// The coordinator of a -cluster run spawns workers; give the run its own
	// process group so that a timeout, or a worker that outlives its
	// coordinator, can be stopped with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }

	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	pgid := cmd.Process.Pid
	err = cmd.Wait()
	wall := time.Since(start).Seconds()
	orphans, killed := reapGroup(pgid)
	if killed && err == nil {
		err = errors.New("worker processes outlived the coordinator and had to be killed")
	}
	if err != nil {
		return childRun{}, fmt.Errorf("%s %v: %v\n%s", filepath.Base(bin), args, err, tail(stderr.String(), 2000))
	}
	if err := out.Close(); err != nil {
		return childRun{}, err
	}
	sum, err := fileSHA256(outPath)
	if err != nil {
		return childRun{}, err
	}
	// The coordinator's rusage covers itself and the workers it waited for;
	// the orphans' covers the rest.
	usage := append(orphans, *cmd.ProcessState.SysUsage().(*syscall.Rusage))
	c := childRun{WallS: wall, Stdout: outPath, SHA256: sum}
	for _, ru := range usage {
		c.RSSMB = max(c.RSSMB, float64(ru.Maxrss)/1024) // Linux reports KiB
		c.CPUS += seconds(ru.Utime) + seconds(ru.Stime)
	}
	return c, nil
}

func seconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// reapGroup waits for every process of the group that the exited child left
// behind, returns their rusage, and reports whether any had to be killed
// because it was still running after a grace period.
func reapGroup(pgid int) (orphans []syscall.Rusage, killed bool) {
	var fired atomic.Bool
	grace := time.AfterFunc(2*time.Second, func() {
		fired.Store(true)
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // the group may just have emptied
	})
	defer grace.Stop()
	for {
		var ru syscall.Rusage
		_, err := syscall.Wait4(-pgid, nil, 0, &ru)
		if err == syscall.EINTR {
			continue
		}
		if err != nil { // ECHILD: nobody is left
			return orphans, fired.Load() && len(orphans) > 0
		}
		orphans = append(orphans, ru)
	}
}

func tail(s string, n int) string {
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}
