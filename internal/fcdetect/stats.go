package fcdetect

import (
	"sort"

	"repro/internal/dataflow"
	"repro/internal/rdf"
)

// FrequencyBucket is one point of the condition-frequency distribution:
// Count conditions occur with exactly Frequency matching triples.
type FrequencyBucket struct {
	Frequency int
	Count     int
}

// ConditionFrequencyHistogram computes the number-of-conditions-by-frequency
// distribution of Fig. 4 over all unary and binary conditions: the detector
// at threshold 1 returns every condition that occurs with its frequency.
func ConditionFrequencyHistogram(triples *dataflow.Dataset[rdf.Triple]) []FrequencyBucket {
	all := Detect(triples, 1, Options{})
	counts := map[int]int{}
	for _, p := range append(all.Unary, all.Binary...) {
		counts[p.Val]++
	}
	out := make([]FrequencyBucket, 0, len(counts))
	for f, n := range counts {
		out = append(out, FrequencyBucket{Frequency: f, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Frequency < out[j].Frequency })
	return out
}
