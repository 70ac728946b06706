package rdfind

// This file provides one testing.B benchmark per evaluation artifact of the
// paper (every table and figure of §8 and Appendix B), wrapping the
// experiment runners in internal/experiments at a reduced scale so that
// `go test -bench=.` regenerates the whole evaluation in bounded time. For
// full-size reports use:
//
//	go run ./cmd/benchsuite -exp all -scale 1 | tee experiments.txt
//
// EXPERIMENTS.md records a full-scale run next to the paper's numbers. These
// regenerate reports; the numbers a performance claim rests on come from
// benchmark/ (see BENCHMARK.json).

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
)

// benchScale keeps per-iteration cost in the single-digit seconds.
const benchScale = 0.1

func runExperiment(b *testing.B, id string) {
	b.Helper()
	opts := experiments.Options{Scale: benchScale, Workers: 2}
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Datasets(b *testing.B)           { runExperiment(b, "table2") }
func BenchmarkFig2SearchSpace(b *testing.B)          { runExperiment(b, "fig2") }
func BenchmarkFig4ConditionFrequencies(b *testing.B) { runExperiment(b, "fig4") }
func BenchmarkFig7VsCinderella(b *testing.B)         { runExperiment(b, "fig7") }
func BenchmarkFig8TripleScaling(b *testing.B)        { runExperiment(b, "fig8") }
func BenchmarkFig9ScaleOut(b *testing.B)             { runExperiment(b, "fig9") }
func BenchmarkFig10SupportRuntime(b *testing.B)      { runExperiment(b, "fig10") }
func BenchmarkFig11SupportResults(b *testing.B)      { runExperiment(b, "fig11") }
func BenchmarkFig12PruningSmall(b *testing.B)        { runExperiment(b, "fig12") }
func BenchmarkFig13PruningLarge(b *testing.B)        { runExperiment(b, "fig13") }
func BenchmarkSec86MinimalFirst(b *testing.B)        { runExperiment(b, "sec86") }
func BenchmarkFig14QueryMinimization(b *testing.B)   { runExperiment(b, "fig14") }
func BenchmarkAppBUseCases(b *testing.B)             { runExperiment(b, "appB") }
func BenchmarkAblationBloomSize(b *testing.B)        { runExperiment(b, "ablation") }

// BenchmarkDiscover measures the core pipeline itself (no reporting) on the
// Diseasome analogue across thresholds — the workload of Figs. 10 and 12.
func BenchmarkDiscover(b *testing.B) {
	spec, _ := datagen.ByName("Diseasome")
	ds := spec.Generate(benchScale)
	for _, h := range []int{10, 100, 1000} {
		b.Run(sprintH(h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Discover(ds, core.Config{Support: h, Workers: 2})
			}
		})
	}
}

// BenchmarkDiscoverVariants compares the pipeline variants of §8.5/§8.6.
func BenchmarkDiscoverVariants(b *testing.B) {
	spec, _ := datagen.ByName("Diseasome")
	ds := spec.Generate(benchScale)
	for _, v := range []core.Variant{core.Standard, core.DirectExtraction, core.NoFrequentConditions, core.MinimalFirst} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Discover(ds, core.Config{Support: 25, Workers: 2, Variant: v})
			}
		})
	}
}

func sprintH(h int) string {
	switch h {
	case 10:
		return "h=10"
	case 100:
		return "h=100"
	default:
		return "h=1000"
	}
}
