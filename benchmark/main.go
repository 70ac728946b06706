// Command benchmark is the repository's benchmark: it generates the inputs,
// builds cmd/rdfind from the checkout, runs a workload, verifies what the
// program printed and reports every metric by name with its unit.
//
//	go run ./benchmark -workload scan_heavy -seed 7 -seconds 15 -trace 0
//
// runs one workload the way the acceptance driver does and ends with one
// JSON line. Without -workload it runs every workload, tracing off and on,
// each in a process of its own, and prints one table; -aa does that for two
// sets of -runs seeds and compares them against BENCHMARK.json's bounds.
// README.md has the workloads' rationale and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed of a run that names none; any other is accepted.
const defaultSeed = 1

// defaultSeconds equals BENCHMARK.json's run_seconds (a test keeps it so).
const defaultSeconds = 15

func main() {
	workloadName := flag.String("workload", "", "run this one workload and end with the driver's JSON line (default: all, as a table)")
	seed := flag.Int64("seed", defaultSeed, "seed of the triple order, the shard cut and the query sequence")
	seconds := flag.Float64("seconds", defaultSeconds, "measuring time of one run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	aa := flag.Bool("aa", false, "run two sets of the same code and compare their medians against the bounds")
	runs := flag.Int("runs", 0, "runs per set and workload, each on its own seed (default 1, with -aa 10 as the driver makes)")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := runOnce(root, filepath.Join(root, ".bench_build"), w, fullSizes, *seed, *seconds, *trace == 1, os.Stdout)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	sets := 1
	if *aa {
		sets = 2
	}
	if *runs == 0 {
		*runs = 1
		if *aa {
			*runs = 10
		}
	}
	if err := runSets(root, sets, *runs, *seed, *seconds); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// findRoot walks up from the working directory to the module's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

// result is the line the acceptance driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnce runs one workload once, end to end or traced, and reports every
// metric of that kind. Everything it writes goes under build, which main
// puts in the checkout; the run's own directory is removed when it ends, the
// binary and the trace files stay.
func runOnce(root, build string, w workload, sz sizes, seed int64, seconds float64, trace bool, log io.Writer) (*result, error) {
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	bin, buildS, err := buildCLI(root, build)
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	r := &run{w: w, sz: sz, seed: seed, seconds: seconds, work: work, bin: bin, log: log, tr: newTracer()}
	r.logf("workload %s seed %d: %s", w.Name, seed, w.Why)
	r.logf("go build ./cmd/rdfind: %.2f s (not part of setup_s)", buildS)

	defs, measure := endToEndMetrics, r.endToEnd
	if trace {
		defs, measure = perLayerMetrics, r.perLayer
	}
	start := time.Now()
	sums, err := measure()
	if err != nil {
		return nil, err
	}
	if trace {
		path := filepath.Join(build, "trace", fmt.Sprintf("%s-seed%d.trace.json", w.Name, seed))
		if err := r.tr.writeChrome(path); err != nil {
			return nil, err
		}
		r.logf("trace: %s (open in ui.perfetto.dev)", path)
	}

	res := &result{Attempted: r.attempted, Failed: len(r.failures), Metrics: map[string]metricValue{}}
	for _, d := range defs {
		s, ok := sums[d.Name]
		if !ok || s.N == 0 {
			return nil, fmt.Errorf("%s: no sample of %s: %s", w.Name, d.Name, failureSummary(r.failures))
		}
		res.Metrics[d.Name] = metricValue{Value: s.Value, Unit: d.Unit}
		r.logf("%-32s %14.6g %-6s of %d samples (min %.6g, max %.6g)", d.Name, s.Value, d.Unit, s.N, s.Min, s.Max)
	}
	res.Correct = res.Failed == 0
	r.logf("attempted %d, failed %d, %.1f s", res.Attempted, res.Failed, time.Since(start).Seconds())
	if !res.Correct {
		r.logf("FAILED: %s", failureSummary(r.failures))
	}
	return res, nil
}

// benchmarkFile is BENCHMARK.json, as far as -aa needs it.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSets runs every workload `runs` times per set, each run in a process
// of its own so that no run inherits another's heap or peak RSS, and prints
// per (metric, workload) the median and quartile spread of each set. With
// two sets it fails if the second median is worse than the first by more
// than the metric's bound, or a spread exceeds it.
func runSets(root string, sets, runs int, seed int64, seconds float64) error {
	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	// values[set][workload][metric] holds one value per run.
	values := make([]map[string]map[string][]float64, sets)
	units := map[string]string{}
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values[set][w.Name] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				for _, trace := range []int{0, 1} {
					if trace == 1 && i > 0 {
						continue // one traced run per set and workload
					}
					res, err := runChildBenchmark(self, root, w.Name, seed+int64(i), seconds, trace)
					if err != nil {
						return fmt.Errorf("set %d, %s, seed %d, trace %d: %w", set, w.Name, seed+int64(i), trace, err)
					}
					for name, m := range res.Metrics {
						values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
						units[name] = m.Unit
					}
				}
			}
		}
	}

	breaches := 0
	for _, w := range workloads {
		fmt.Printf("\n%s\n", w.Name)
		names := make([]string, 0, len(values[0][w.Name]))
		for name := range values[0][w.Name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a := values[0][w.Name][name]
			line := fmt.Sprintf("  %-32s %14.6g %-6s", name, median(a), units[name])
			if runs > 1 && len(a) > 1 {
				line += fmt.Sprintf(" spread %5.1f %%", 100*quartileSpread(a))
			}
			for _, e := range bf.EndToEnd {
				if e.Name != name || sets < 2 {
					continue
				}
				b := values[1][w.Name][name]
				worse := worsening(median(a), median(b), e.Better)
				line += fmt.Sprintf(" | second set %14.6g spread %5.1f %% | worse by %+6.1f %% (bound %.0f %%)",
					median(b), 100*quartileSpread(b), 100*worse, 100*e.Bound)
				spread := max(quartileSpread(a), quartileSpread(b))
				if worse > e.Bound || -worse > e.Bound || (name != "setup_s" && spread > e.Bound) {
					line += "  BREACH"
					breaches++
				}
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("\n%d set(s) of %d run(s) per workload in %.0f s\n", sets, runs, time.Since(start).Seconds())
	if breaches > 0 {
		return fmt.Errorf("%d (metric, workload) pairs outside their bounds", breaches)
	}
	return nil
}

// runChildBenchmark runs this program once on one workload and parses the
// JSON line it ends with.
func runChildBenchmark(self, root, workload string, seed int64, seconds float64, trace int) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, tail(string(out), 2000))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last line is not the result: %w", err)
	}
	return &res, nil
}
