// Package experiments regenerates every table and figure of the paper's
// evaluation (§8 and Appendix B) on the synthetic dataset suite. Each
// experiment is registered under the identifier used in DESIGN.md
// ("table2", "fig2", …, "fig14", "sec86", "appB") and produces a Report —
// the same rows/series the paper plots, which EXPERIMENTS.md compares
// against the published results.
//
// Absolute numbers differ from the paper (one small machine and scaled-down
// datasets versus a 10-node cluster and the original corpora); the reports
// are about shape: who wins, by what factor, where the curves bend.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/cind"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

// Options configure a harness run.
type Options struct {
	// Scale multiplies every dataset size; 1.0 is the default suite size
	// (see datagen.Suite), benchmarks typically use 0.1–0.3.
	Scale float64
	// Workers is the dataflow worker count used where the experiment does
	// not itself vary it. Zero selects 4.
	Workers int
}

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	return o
}

// Report is one regenerated table or figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// WriteTo renders the report as an aligned text table.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Runner computes one experiment.
type Runner func(opts Options) (*Report, error)

// registry maps experiment IDs to runners, in presentation order.
var registry = []struct {
	ID    string
	Run   Runner
	Title string
}{
	{"table2", RunTable2, "Evaluation datasets (Table 2)"},
	{"fig2", RunFig2, "CIND search-space funnel on Diseasome (Figure 2)"},
	{"fig4", RunFig4, "Conditions by frequency (Figure 4)"},
	{"fig7", RunFig7, "RDFind vs. Cinderella (Figure 7)"},
	{"fig8", RunFig8, "Scaling the number of triples (Figure 8)"},
	{"fig9", RunFig9, "Scaling out (Figure 9)"},
	{"fig10", RunFig10, "Runtime vs. support threshold (Figure 10)"},
	{"fig11", RunFig11, "Pertinent CINDs vs. support threshold (Figure 11)"},
	{"fig12", RunFig12, "Pruning effectiveness, small datasets (Figure 12)"},
	{"fig13", RunFig13, "RDFind vs. RDFind-DE, larger datasets (Figure 13)"},
	{"sec86", RunSec86, "Minimal-CINDs-first strategy (Section 8.6)"},
	{"fig14", RunFig14, "Query minimization, LUBM Q2 (Figure 14)"},
	{"appB", RunAppB, "Use-case CINDs and ARs (Appendix B)"},
	{"ablation", RunAblation, "Candidate-set Bloom size ablation (§7.2)"},
}

// IDs returns the registered experiment identifiers in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// Lookup returns the runner for an ID.
func Lookup(id string) (Runner, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e.Run, true
		}
	}
	return nil, false
}

// Run executes one experiment (or all for id "all") and writes its report.
func Run(id string, opts Options, w io.Writer) error {
	if strings.EqualFold(id, "all") {
		for _, e := range registry {
			if err := Run(e.ID, opts, w); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return nil
	}
	runner, ok := Lookup(id)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %s, all)", id, strings.Join(IDs(), ", "))
	}
	rep, err := runner(opts.normalized())
	if err != nil {
		return err
	}
	_, err = rep.WriteTo(w)
	return err
}

// datasetCache memoizes generated datasets per (name, scale) so that
// experiments sharing inputs do not regenerate them.
var (
	cacheMu      sync.Mutex
	datasetCache = map[string]*rdf.Dataset{}
)

func dataset(name string, scale float64) *rdf.Dataset {
	key := fmt.Sprintf("%s@%g", name, scale)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if ds, ok := datasetCache[key]; ok {
		return ds
	}
	spec, ok := datagen.ByName(name)
	if !ok {
		panic("experiments: unknown dataset " + name)
	}
	ds := spec.Generate(scale)
	datasetCache[key] = ds
	return ds
}

// timedDiscover times one core.TryDiscover and panics on error, like
// core.Discover.
func timedDiscover(ds *rdf.Dataset, cfg core.Config) (*cind.Result, *core.RunStats, time.Duration) {
	res, stats, elapsed, err := timedTryDiscover(ds, cfg)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return res, stats, elapsed
}

// timedTryDiscover is timedDiscover with the error (load limit, injected
// fault) returned.
func timedTryDiscover(ds *rdf.Dataset, cfg core.Config) (*cind.Result, *core.RunStats, time.Duration, error) {
	start := time.Now()
	res, stats, err := core.TryDiscover(ds, cfg)
	return res, stats, time.Since(start), err
}

// fmtDuration renders a duration with millisecond resolution.
func fmtDuration(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// fmtCount renders large counts with thousands separators.
func fmtCount[T ~int | ~int64 | ~uint64](n T) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return s + "," + strings.Join(parts, ",")
}
