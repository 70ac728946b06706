package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

// RunFig8 regenerates the triple-scaling experiment: the Freebase analogue
// is grown in six steps and RDFind (predicates only in conditions, as in
// §8.3) is timed on each prefix size. Reproduced properties: slightly
// superlinear runtime growth, monotonically growing pertinent-CIND counts,
// and an association-rule count that peaks and then declines (adding
// triples violates exact rules).
func RunFig8(opts Options) (*Report, error) {
	spec, _ := datagen.ByName("Freebase")
	full := spec.Generate(opts.Scale)
	steps := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6, 4.0 / 6, 5.0 / 6, 1}
	// The paper used h=1000 on 0.5–3 B triples; scale the threshold with
	// the dataset so the pruning regime matches.
	h := int(1000 * float64(full.Size()) / 3_000_000_000 * 1000)
	if h < 20 {
		h = 20
	}
	rep := &Report{
		ID:     "fig8",
		Title:  fmt.Sprintf("Triple scaling, Freebase analogue, h=%d, predicates only in conditions", h),
		Header: []string{"Triples", "Runtime", "CINDs", "ARs", "ns/triple"},
		Notes: []string{
			"paper: slightly quadratic runtime; CINDs grow with input; ARs peak at 1B triples then decline",
		},
	}
	for _, frac := range steps {
		n := int(float64(full.Size()) * frac)
		prefix := &rdf.Dataset{Dict: full.Dict, Triples: full.Triples[:n]}
		res, _, elapsed := timedDiscover(prefix, core.Config{
			Support:                    h,
			Workers:                    opts.Workers,
			PredicatesOnlyInConditions: true,
		})
		rep.Rows = append(rep.Rows, []string{
			fmtCount(n),
			fmtDuration(elapsed),
			fmtCount(len(res.CINDs)),
			fmtCount(len(res.ARs)),
			fmt.Sprintf("%.0f", float64(elapsed.Nanoseconds())/float64(n)),
		})
	}
	return rep, nil
}

// RunFig9 regenerates the scale-out experiment on the LinkedMDB analogue:
// worker counts 1–20 across five support thresholds. Wall time can improve
// only up to the machine's core count, so the report also includes the
// work-balance speedup (total work over critical-path work, see
// internal/dataflow), which is the quantity load balancing improves and
// Fig. 9 measures on a cluster.
func RunFig9(opts Options) (*Report, error) {
	ds := dataset("LinkedMDB", opts.Scale)
	workerCounts := []int{1, 2, 4, 8, 10, 20}
	thresholds := []int{25, 50, 100, 1000, 10000}
	rep := &Report{
		ID:     "fig9",
		Title:  fmt.Sprintf("Scale-out, LinkedMDB analogue (%s triples)", fmtCount(ds.Size())),
		Header: []string{"Workers", "h", "Wall time", "Work-balance speedup", "CINDs+ARs"},
		Notes:  []string{"paper: near-linear scaling, average speedup 8.14 on 10 machines"},
	}
	if runtime.NumCPU() == 1 {
		rep.Notes = append(rep.Notes, "wall time on this single-core machine cannot improve with workers; the balance speedup is the cluster-relevant measure")
	}
	for _, h := range thresholds {
		for _, w := range workerCounts {
			res, stats, elapsed := timedDiscover(ds, core.Config{Support: h, Workers: w})
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%d", h),
				fmtDuration(elapsed),
				fmt.Sprintf("%.2f", stats.Dataflow.Speedup()),
				fmtCount(len(res.CINDs) + len(res.ARs)),
			})
		}
	}
	return rep, nil
}
