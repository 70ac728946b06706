package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// supportSweep lists, per dataset, the thresholds swept in Figs. 10 and 11.
// Mirroring the paper's plots, the larger datasets start at higher
// thresholds (the paper's own curves for DB14-PLE begin at h=100): at tiny
// thresholds almost no condition can be pruned and extraction cost grows
// quadratically with capture-group sizes (§8.4).
var supportSweep = []struct {
	Dataset    string
	Thresholds []int
}{
	{"Countries", []int{1, 10, 100, 1000}},
	{"Diseasome", []int{5, 10, 100, 1000, 10000}},
	{"LUBM-1", []int{5, 10, 100, 1000, 10000}},
	{"DrugBank", []int{10, 100, 1000, 10000}},
	{"LinkedMDB", []int{25, 100, 1000, 10000}},
	{"DB14-MPCE", []int{25, 100, 1000, 10000}},
	{"DB14-PLE", []int{100, 1000, 10000}},
}

// sweep runs the support sweep once and returns per-(dataset, h) runtime and
// result counts; both Fig. 10 and Fig. 11 are views of it.
type sweepPoint struct {
	Dataset string
	H       int
	Runtime time.Duration
	CINDs   int
	ARs     int
}

var sweepCache = map[string][]sweepPoint{}

func runSweep(opts Options) []sweepPoint {
	key := fmt.Sprintf("%g/%d", opts.Scale, opts.Workers)
	cacheMu.Lock()
	cached, ok := sweepCache[key]
	cacheMu.Unlock()
	if ok {
		return cached
	}
	var points []sweepPoint
	for _, entry := range supportSweep {
		ds := dataset(entry.Dataset, opts.Scale)
		for _, h := range entry.Thresholds {
			res, _, elapsed := timedDiscover(ds, core.Config{Support: h, Workers: opts.Workers})
			points = append(points, sweepPoint{
				Dataset: entry.Dataset,
				H:       h,
				Runtime: elapsed,
				CINDs:   len(res.CINDs),
				ARs:     len(res.ARs),
			})
		}
	}
	cacheMu.Lock()
	sweepCache[key] = points
	cacheMu.Unlock()
	return points
}

// RunFig10 regenerates the runtime-vs-support curves: nearly constant for
// large h, rising steeply once h drops into the regime where most
// conditions survive pruning.
func RunFig10(opts Options) (*Report, error) {
	rep := &Report{
		ID:     "fig10",
		Title:  "Runtime by support threshold",
		Header: []string{"Dataset", "h", "Runtime"},
		Notes: []string{
			"paper: runtimes are flat for large h and rise sharply below h≈10",
		},
	}
	for _, p := range runSweep(opts) {
		rep.Rows = append(rep.Rows, []string{p.Dataset, fmt.Sprintf("%d", p.H), fmtDuration(p.Runtime)})
	}
	return rep, nil
}

// RunFig11 regenerates the result-size-vs-support curves: the number of
// pertinent CINDs is roughly inversely proportional to the threshold, with
// ARs accounting for a sizable share.
func RunFig11(opts Options) (*Report, error) {
	rep := &Report{
		ID:     "fig11",
		Title:  "Pertinent CINDs and ARs by support threshold",
		Header: []string{"Dataset", "h", "CINDs", "ARs"},
		Notes: []string{
			"paper: decreasing h by two orders of magnitude increases CINDs by about three; ARs are 10–50% of the CIND count",
		},
	}
	for _, p := range runSweep(opts) {
		rep.Rows = append(rep.Rows, []string{
			p.Dataset, fmt.Sprintf("%d", p.H), fmtCount(p.CINDs), fmtCount(p.ARs),
		})
	}
	return rep, nil
}
