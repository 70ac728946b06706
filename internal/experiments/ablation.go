package experiments

import (
	"fmt"

	"repro/internal/core"
)

// RunAblation sweeps the candidate-set Bloom filter size, the design choice
// §7.2 settles experimentally: "We experimentally observed that k = 64
// bytes yields the best performance." Small filters saturate and push many
// candidates into the validation pass; large ones waste memory bandwidth on
// cloning and intersecting. Results must be identical at every size (the
// filters are performance-only).
func RunAblation(opts Options) (*Report, error) {
	ds := dataset("LinkedMDB", opts.Scale)
	const h = 25
	sizes := []int{8, 16, 32, 64, 128, 256, 512}
	rep := &Report{
		ID:     "ablation",
		Title:  fmt.Sprintf("Candidate-set Bloom filter size, LinkedMDB analogue (%s triples), h=%d", fmtCount(ds.Size()), h),
		Header: []string{"Bloom bytes", "Runtime", "CINDs+ARs"},
		Notes: []string{
			"paper (§7.2): 64 bytes performed best; results are identical at every size",
		},
	}
	baseline := -1
	for _, size := range sizes {
		res, _, elapsed := timedDiscover(ds, core.Config{Support: h, Workers: opts.Workers, BloomBytes: size})
		n := len(res.CINDs) + len(res.ARs)
		if baseline < 0 {
			baseline = n
		} else if n != baseline {
			return nil, fmt.Errorf("ablation: result changed with Bloom size %d: %d vs %d statements", size, n, baseline)
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", size), fmtDuration(elapsed), fmtCount(n)})
	}
	return rep, nil
}
