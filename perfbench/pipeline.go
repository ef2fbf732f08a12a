package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crossfeature/internal/attack"
	"crossfeature/internal/core"
	"crossfeature/internal/eval"
	"crossfeature/internal/experiments"
	"crossfeature/internal/features"
	"crossfeature/internal/ml"
	"crossfeature/internal/netsim"
	"crossfeature/internal/trace"
)

// scenario is one workload's routing/transport combination. Every trace
// of a run — the training trace, the held-out normal and mixed-intrusion
// traces of the offline pipeline, and the records the serve phases send —
// is simulated in it.
type scenario struct {
	Name      string
	Routing   netsim.RoutingKind
	Transport netsim.TransportKind
}

// scenarios are the benchmark's workloads. AODV/TCP is the scenario whose
// detection AUCs sit below the ceiling; DSR/UDP runs a different routing
// protocol and transport through the same pipeline, so a change to one
// protocol's simulation code is exercised on one workload and bypassed on
// the other, and the bundles served differ in tree shape.
var scenarios = []scenario{
	{Name: "aodv-tcp", Routing: netsim.AODV, Transport: netsim.TCP},
	{Name: "dsr-udp", Routing: netsim.DSR, Transport: netsim.CBR},
}

func scenarioByName(name string) (scenario, error) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, nil
		}
	}
	return scenario{}, fmt.Errorf("unknown workload %q", name)
}

// learnerKeys names the paper's three learners in metric names, in the
// order experiments.Learners returns them.
var learnerKeys = []string{"c45", "ripper", "nbc"}

// traceKind labels the five traces of a pipeline run.
type traceKind int

const (
	trainTrace traceKind = iota
	normalTrace
	mixedTrace
)

type simJob struct {
	kind traceKind
	seed int64
}

type simOut struct {
	snaps      []trace.Snapshot
	plan       attack.Plan
	events     uint64
	start, end time.Time
	err        error
}

// pipelineResult is one run of the researcher's pipeline.
type pipelineResult struct {
	Train       []features.Vector   // the training trace, unfiltered
	Mixed       [][]features.Vector // the mixed-intrusion test traces
	Stage       map[string]time.Duration
	Events      uint64 // simulator events fired across all traces
	TestRecords int    // records scored per learner
	AUC         map[string]float64
	Wall        time.Duration
}

// pipelinePreset is the quick preset (30 nodes, 30 connections, 2000 s
// runs) with every trace seed drawn from the workload seed. The scenario
// script (movement and connection pattern, WorkloadSeed) stays the
// preset's, as in the experiments: traces differ in protocol dynamics,
// not in the background they replay.
func pipelinePreset(seed int64) experiments.Preset {
	p := experiments.QuickPreset()
	base := 1000 * seed
	p.TrainSeed = base + 1
	p.NormalSeeds = []int64{base + 2, base + 3}
	p.AttackSeeds = []int64{base + 4, base + 5}
	return p
}

// simConfig mirrors the experiments lab's netsim configuration for one
// trace, with the mixed-intrusion schedule (black hole, then selective
// dropping, in periodic sessions) on attack traces.
func simConfig(p experiments.Preset, sc scenario, kind traceKind, seed int64) netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.Nodes = p.Nodes
	cfg.Connections = p.Connections
	cfg.Duration = p.Duration
	cfg.SampleInterval = p.Sample
	cfg.Seed = seed
	cfg.WorkloadSeed = p.WorkloadSeed
	cfg.Routing = sc.Routing
	cfg.Transport = sc.Transport
	if kind == mixedTrace {
		periodic := func(start float64) []attack.Session {
			var out []attack.Session
			for t := start; t < p.Duration; t += 2 * p.SessionDuration {
				out = append(out, attack.Session{Start: t, Duration: math.Min(p.SessionDuration, p.Duration-t)})
			}
			return out
		}
		cfg.Attacks = []attack.Spec{
			{Kind: attack.BlackHole, Node: p.AttackerNode, Sessions: periodic(p.BlackHoleStart)},
			{Kind: attack.SelectiveDrop, Node: p.AttackerNode, Target: p.DropTarget, Sessions: periodic(p.DropStart)},
		}
	}
	return cfg
}

// runPipeline simulates, extracts, discretises, trains, compiles, scores
// and evaluates, timing each stage at its public call. Simulations run
// GOMAXPROCS at a time, like the experiments lab. rec (nil in timed runs)
// receives one span per stage under a root span for the run.
func runPipeline(sc scenario, seed int64, rec *recorder, req int64) (*pipelineResult, error) {
	p := pipelinePreset(seed)
	res := &pipelineResult{Stage: make(map[string]time.Duration), AUC: make(map[string]float64)}
	t0 := time.Now()
	root := rec.begin(req, 0, "pipeline")
	// stage times one stage at its call; f gets the stage's span ID to
	// parent any spans of its own.
	stage := func(name string, f func(span int) error) error {
		id := rec.begin(req, root, name)
		s := time.Now()
		err := f(id)
		res.Stage[name] += time.Since(s)
		rec.end(id)
		return err
	}

	// The mixed traces run longest, so they go first: GOMAXPROCS workers
	// take jobs in this fixed order, and the stage's wall time does not
	// depend on which goroutine happened to win a semaphore.
	var jobs []simJob
	for _, s := range p.AttackSeeds {
		jobs = append(jobs, simJob{mixedTrace, s})
	}
	jobs = append(jobs, simJob{trainTrace, p.TrainSeed})
	for _, s := range p.NormalSeeds {
		jobs = append(jobs, simJob{normalTrace, s})
	}
	outs := make([]simOut, len(jobs))
	err := stage("simulate", func(span int) error {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
					j, o := jobs[i], &outs[i]
					o.start = time.Now()
					net, err := netsim.New(simConfig(p, sc, j.kind, j.seed))
					if err == nil {
						err = net.Run()
					}
					o.end = time.Now()
					if err != nil {
						o.err = fmt.Errorf("simulate %s seed %d: %w", sc.Name, j.seed, err)
						continue
					}
					o.snaps, o.plan, o.events = net.Snapshots(0), net.Plan(), net.Engine().Processed()
				}
			}()
		}
		wg.Wait()
		for _, o := range outs {
			rec.add(req, span, "simulate.trace", o.start, o.end)
		}
		for _, o := range outs {
			if o.err != nil {
				return o.err
			}
			res.Events += o.events
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	traces := make([]experiments.Trace, len(jobs))
	stage("extract", func(int) error {
		for i, o := range outs {
			traces[i] = experiments.Trace{Vectors: features.FromSnapshots(o.snaps), Plan: o.plan}
		}
		return nil
	})
	var test []experiments.Trace
	for i, t := range traces {
		switch jobs[i].kind {
		case trainTrace:
			res.Train = t.Vectors
		case mixedTrace:
			res.Mixed = append(res.Mixed, t.Vectors)
			test = append(test, t)
		default:
			test = append(test, t)
		}
	}

	var ds *ml.Dataset
	var testX [][]int
	err = stage("discretize", func(int) error {
		rows := features.Matrix(trimBefore(res.Train, p.Warmup))
		disc, err := features.Fit(rows, features.Names(), features.FitOptions{
			Buckets: p.Buckets, SampleSize: p.PrefilterSize, Seed: p.TrainSeed})
		if err != nil {
			return err
		}
		if ds, err = disc.Dataset(rows); err != nil {
			return err
		}
		for _, t := range test {
			for _, v := range t.Vectors {
				x, err := disc.Transform(v.Values)
				if err != nil {
					return err
				}
				testX = append(testX, x)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.TestRecords = len(testX)

	analyzers := make([]*core.Analyzer, len(learnerKeys))
	for i, l := range experiments.Learners() {
		err := stage("train."+learnerKeys[i], func(int) (err error) {
			analyzers[i], err = core.Train(ds, l, core.TrainOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	stage("compile", func(int) error {
		for _, a := range analyzers {
			a.Compile()
		}
		return nil
	})

	scores := make([][]float64, len(analyzers))
	for i, a := range analyzers {
		stage("score."+learnerKeys[i], func(int) error {
			scores[i] = a.ScoreAll(ml.DatasetOf(a.Attrs, testX), core.Probability)
			return nil
		})
	}

	stage("evaluate", func(int) error {
		var labels []bool
		var keep []bool
		for _, t := range test {
			labels = append(labels, t.Labels()...)
			for _, v := range t.Vectors {
				keep = append(keep, v.Time >= p.Warmup)
			}
		}
		for i, s := range scores {
			events := make([]eval.Scored, 0, len(s))
			for j, v := range s {
				if keep[j] {
					events = append(events, eval.Scored{Score: v, Intrusion: labels[j]})
				}
			}
			res.AUC[learnerKeys[i]] = eval.AUC(eval.Curve(events))
		}
		return nil
	})
	rec.end(root)
	res.Wall = time.Since(t0)
	return res, nil
}

// trimBefore drops the vectors recorded before warmup, while the long
// statistics windows are still filling.
func trimBefore(vs []features.Vector, warmup float64) []features.Vector {
	var out []features.Vector
	for _, v := range vs {
		if v.Time >= warmup {
			out = append(out, v)
		}
	}
	return out
}

// meanAUC is the mean of the learners' AUCs.
func (r *pipelineResult) meanAUC() float64 {
	sum := 0.0
	for _, k := range learnerKeys {
		sum += r.AUC[k]
	}
	return sum / float64(len(learnerKeys))
}

// checkAUCs fails unless every learner's AUC is finite and beats random.
func (r *pipelineResult) checkAUCs() error {
	for _, k := range learnerKeys {
		a := r.AUC[k]
		if math.IsNaN(a) || math.IsInf(a, 0) || a <= 0.5 {
			return fmt.Errorf("%s AUC %v does not beat random", k, a)
		}
	}
	return nil
}
