package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cind"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triplestore"
)

const (
	engineWorkers = 2 // the box has two cores
	clients       = 2 // closed loop: the engine's Execute blocks, so each caller waits for its reply
	queryTimeout  = 10 * time.Second
)

// The serving mix runs over the LUBM analogue; constants carry the angle
// brackets the N-Triples round trip gives every term.
const (
	lookupQuery = "SELECT ?x WHERE { ?x <rdf:type> <GraduateStudent> . ?x <memberOf> %s }"
	scanQuery   = "SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 50"
	// LUBM Q2, which the discovered CINDs minimize from six patterns to
	// three (PAPER Fig. 14).
	join6Query = "SELECT ?x ?y ?z WHERE { " +
		"?x <rdf:type> <GraduateStudent> . ?y <rdf:type> <University> . ?z <rdf:type> <Department> . " +
		"?x <memberOf> ?z . ?z <subOrganizationOf> ?y . ?x <undergraduateDegreeFrom> ?y }"
)

var queryClasses = []string{"lookup", "scan", "join6"}

// servingState is what `serve` sets up before it answers its first query:
// the dataset read back from its file, the CINDs discovered on it, the
// store's indexes and a running engine that minimizes with those CINDs.
type servingState struct {
	ds    *rdf.Dataset
	res   *cind.Result
	st    *triplestore.Store
	eng   *sparql.Engine
	depts []string // constants for the lookup class, in first-seen order
}

// newServingState sets the state up from files, one span per step.
func newServingState(tr *tracer, files []string, support int) (*servingState, error) {
	id := tr.begin("serve.ingest")
	ds, err := readDataset(files)
	if err != nil {
		return nil, err
	}
	tr.end(id, map[string]float64{"triples": float64(len(ds.Triples))})

	id = tr.begin("serve.discover")
	res, _, err := core.DiscoverContext(context.Background(), ds, core.Config{Support: support, Workers: engineWorkers})
	if err != nil {
		return nil, err
	}
	tr.end(id, map[string]float64{"cinds": float64(len(res.CINDs))})

	id = tr.begin("triplestore.build")
	st := triplestore.New(ds)
	tr.end(id, nil)

	id = tr.begin("sparql.engine_start")
	eng := sparql.NewEngine(st, sparql.EngineConfig{Workers: engineWorkers, Knowledge: res, Timeout: queryTimeout})
	tr.end(id, nil)

	s := &servingState{ds: ds, res: res, st: st, eng: eng}
	memberOf, ok := ds.Dict.Lookup("<memberOf>")
	if !ok {
		eng.Close()
		return nil, fmt.Errorf("serving dataset has no <memberOf> predicate")
	}
	seen := map[rdf.Value]bool{}
	for _, t := range ds.Triples {
		if t.P == memberOf && !seen[t.O] {
			seen[t.O] = true
			s.depts = append(s.depts, ds.Dict.Decode(t.O))
		}
	}
	// First-seen order follows the seeded triple order; sorted, the list is
	// the same for every seed and only the mix's own generator varies.
	sort.Strings(s.depts)
	return s, nil
}

func (s *servingState) close() { s.eng.Close() }

// query is one entry of the seeded sequence a client replays.
type query struct {
	Class, Text string
}

// queryMix returns n queries in seeded order: nine in ten are lookups, whose
// constant varies so that the plan cache is hit on shape, not on text, and
// which set the median; the rest split evenly between the scan and the
// six-pattern join, which cost a hundred times more and set the tail. The
// composition is exact, not drawn, so that every seed asks for the same
// work: at one heavy query in ten, a drawn mix would move qps by several
// percent from seed to seed.
func (s *servingState) queryMix(rng *rand.Rand, n int) []query {
	out := make([]query, n)
	for i := range out {
		switch {
		case i%20 == 0:
			out[i] = query{"scan", scanQuery}
		case i%20 == 10:
			out[i] = query{"join6", join6Query}
		default:
			out[i] = query{"lookup", fmt.Sprintf(lookupQuery, s.depts[i%len(s.depts)])}
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// expectedRows answers every distinct query of the sequences serially,
// without the engine, its plan cache or the CINDs, and returns the row
// counts the engine's answers are checked against.
func (s *servingState) expectedRows(seqs [][]query) (map[string]int, error) {
	want := map[string]int{}
	for _, seq := range seqs {
		for _, q := range seq {
			if _, done := want[q.Text]; done {
				continue
			}
			parsed, err := sparql.Parse(q.Text)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.Text, err)
			}
			res, err := sparql.Execute(s.st, parsed)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.Text, err)
			}
			want[q.Text] = len(res.Rows)
		}
	}
	return want, nil
}

// batch is one closed-loop replay: every client issues its sequence, the
// next query only after the previous reply.
type batch struct {
	WallS     float64
	LatencyMS []float64 // one per query, all clients
	Failed    []string  // queries that erred, timed out or returned the wrong row count
}

func (s *servingState) runBatch(seqs [][]query, want map[string]int) batch {
	type clientOut struct {
		lat    []float64
		failed []string
	}
	outs := make([]clientOut, len(seqs))
	var wg sync.WaitGroup
	start := time.Now()
	for c, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[c]
			out.lat = make([]float64, 0, len(seq))
			for _, q := range seq {
				t0 := time.Now()
				res, err := s.eng.ExecuteString(context.Background(), q.Text)
				out.lat = append(out.lat, float64(time.Since(t0).Nanoseconds())/1e6)
				switch {
				case err != nil:
					out.failed = append(out.failed, fmt.Sprintf("%s: %v", q.Class, err))
				case len(res.Rows) != want[q.Text]:
					out.failed = append(out.failed, fmt.Sprintf("%s: %d rows, serial pass has %d", q.Class, len(res.Rows), want[q.Text]))
				}
			}
		}()
	}
	wg.Wait()
	b := batch{WallS: time.Since(start).Seconds()}
	for _, o := range outs {
		b.LatencyMS = append(b.LatencyMS, o.lat...)
		b.Failed = append(b.Failed, o.failed...)
	}
	return b
}

// probeServing times the serving layers one call at a time, outside the
// engine's queue, and then once through it: what a cache miss costs
// (parse, plan, minimize), what each class costs to execute, and what the
// engine adds on top. Metrics go to m under the layers' names.
func (s *servingState) probeServing(tr *tracer, rng *rand.Rand, reps int, m map[string]float64) error {
	id := tr.begin("sparql.probe")
	defer func() { tr.end(id, nil) }()
	ctx := context.Background()
	texts := map[string]string{
		"lookup": fmt.Sprintf(lookupQuery, s.depts[rng.Intn(len(s.depts))]),
		"scan":   scanQuery,
		"join6":  join6Query,
	}
	var parseUS, planUS, minimizeUS []float64
	for _, class := range queryClasses {
		var execMS []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			q, err := sparql.Parse(texts[class])
			parseUS = append(parseUS, micros(t0))
			if err != nil {
				return err
			}
			t0 = time.Now()
			plan := sparql.PlanQuery(s.st, q, s.res)
			planUS = append(planUS, micros(t0))
			if class == "join6" {
				t0 = time.Now()
				sparql.Minimize(q, s.res, s.ds.Dict)
				minimizeUS = append(minimizeUS, micros(t0))
			}
			t0 = time.Now()
			if _, err := sparql.ExecutePlan(ctx, s.st, q, plan); err != nil {
				return err
			}
			execMS = append(execMS, micros(t0)/1e3)
		}
		m["sparql.exec_p50_ms."+class] = median(execMS)
	}
	m["sparql.parse_us"] = median(parseUS)
	m["sparql.plan_us"] = median(planUS)
	m["sparql.minimize_us"] = median(minimizeUS)

	// One lookup, planned once, executed directly and then through the
	// engine by one caller with nothing else queued: the difference is
	// admission, the hand-off to a worker and the plan-cache look-up.
	q, err := sparql.Parse(texts["lookup"])
	if err != nil {
		return err
	}
	plan := sparql.PlanQuery(s.st, q, s.res)
	var direct, viaEngine []float64
	for i := 0; i < 5*reps; i++ {
		t0 := time.Now()
		if _, err := sparql.ExecutePlan(ctx, s.st, q, plan); err != nil {
			return err
		}
		direct = append(direct, micros(t0))
	}
	for i := 0; i < 5*reps; i++ {
		t0 := time.Now()
		if _, err := s.eng.Execute(ctx, q); err != nil {
			return err
		}
		viaEngine = append(viaEngine, micros(t0))
	}
	m["sparql.engine_overhead_us"] = median(viaEngine) - median(direct)
	return nil
}

func micros(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// failureSummary keeps a failed run's report readable.
func failureSummary(failed []string) string {
	if len(failed) > 5 {
		return strings.Join(failed[:5], "; ") + fmt.Sprintf("; … %d more", len(failed)-5)
	}
	return strings.Join(failed, "; ")
}
