// Command perfbench is the repository's end-to-end benchmark. One run
// simulates a workload's traces and runs the researcher's offline
// detection pipeline on them, builds serving bundles from the training
// trace with `cfa train`, boots two `cfa serve` processes and drives
// them with real HTTP load: closed-loop batches against a C4.5 bundle and
// open-loop single records at three fixed rates against an NBC bundle.
// Every response is checked against scores computed in process.
//
// Run it from the repository root through run.sh, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload aodv-tcp --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object: with --trace 0 it
// holds the end-to-end metrics, with --trace 1 the per-layer metrics of
// a separate traced run. See README.md for what each metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"crossfeature/internal/core"
	"crossfeature/internal/features"
)

// The open-loop phase's fixed record rates, near 17/35/52% of the
// record-nb server's closed-loop capacity (~2.2-2.4k rec/s with two
// connections on a 2-CPU box), and the p99 latency limit
// max_ok_rate_rec_s is judged against.
var rates = []struct {
	name string
	rate float64
}{{"light", 400}, {"busy", 800}, {"peak", 1200}}

const (
	p99LimitMS = 250.0
	setupReps  = 3
	batchWarm  = time.Second
	recordWarm = 500 // arrivals at the light rate before the first window
	// Share of --seconds given to the open-loop phase; the closed-loop
	// batch phase gets the rest.
	recordShare = 0.6
	// Windows of the closed-loop phase, and rounds of the open-loop phase
	// (one window per rate per round, rates interleaved). Throughput and
	// CPU per record are medians over windows, so a burst of noise from a
	// neighbour on the box moves a window, not the figure.
	batchWindows = 6
	rateRounds   = 4
	// minSamples is the fewest requests a rate may get: its p99 must have
	// at least minBeyond samples beyond it.
	minSamples = 100 * minBeyond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Int64("seed", 1, "workload seed: every trace and schedule is drawn from it")
	seconds := flag.Int("seconds", 40, "measured seconds of serving load")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	cfa := flag.String("cfa", ".bench_build/perfbench/cfa", "cfa binary built from the commit under test")
	out := flag.String("out", ".bench_build/perfbench", "directory for bundles, spans and result files")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceFlag == 1, *cfa, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runState accumulates one run's figures.
type runState struct {
	res     result
	layers  map[string]metric
	extra   map[string]metric
	checks  []string
	details map[string]any
}

func (st *runState) e2e(name string, v float64, unit string) {
	st.res.Metrics[name] = metric{v, unit}
}

// info records a figure that is printed and written to result.json but
// is not one of the benchmark's metrics.
func (st *runState) info(name string, v float64, unit string) {
	st.extra[name] = metric{v, unit}
}

func (st *runState) layer(name string, v float64, unit string) {
	st.layers[name] = metric{v, unit}
}

func (st *runState) count(os []outcome) {
	for _, o := range os {
		st.res.Attempted++
		if !o.OK {
			st.res.Failed++
		}
	}
}

func run(workload string, seed int64, seconds int, traced bool, cfa, outDir string) error {
	sc, err := scenarioByName(workload)
	if err != nil {
		return err
	}
	recordWin := float64(seconds) * recordShare / (rateRounds * float64(len(rates)))
	if int(rates[0].rate*recordWin)*rateRounds < minSamples {
		return fmt.Errorf("--seconds %d is too short for a p99 at %g rec/s", seconds, rates[0].rate)
	}
	if _, err := os.Stat(cfa); err != nil {
		return fmt.Errorf("cfa binary: %w (run through perfbench/run.sh)", err)
	}
	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", workload, seed, b2i(traced)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	st := &runState{
		res:     result{Metrics: make(map[string]metric)},
		layers:  make(map[string]metric),
		extra:   make(map[string]metric),
		details: make(map[string]any),
	}
	conns := runtime.NumCPU()
	st.details["meta"] = map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"git_rev": gitRev(), "go_version": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "connections": conns, "started": time.Now().UTC().Format(time.RFC3339),
	}

	// offline-detect. Its traces also feed the serve phases: the training
	// trace trains the bundles, the mixed traces are the records sent.
	csv := filepath.Join(dir, "train.csv")
	records, err := offlinePhase(st, sc, seed, rec, traced, csv)
	if err != nil {
		return err
	}

	// Set-up: train and save both bundles, boot both servers to /readyz.
	c45Model, nbModel := filepath.Join(dir, "c45.bin"), filepath.Join(dir, "nbc.bin")
	warmup := pipelinePreset(seed).Warmup
	var setups []float64
	var batchSrv, recordSrv *server
	defer func() { batchSrv.stop(); recordSrv.stop() }()
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			batchSrv.stop()
			recordSrv.stop()
			batchSrv, recordSrv = nil, nil
		}
		t0 := time.Now()
		if err := trainBundle(cfa, csv, c45Model, "C4.5", warmup); err != nil {
			return err
		}
		if err := trainBundle(cfa, csv, nbModel, "NBC", warmup); err != nil {
			return err
		}
		if batchSrv, err = startServer(cfa, c45Model); err != nil {
			return err
		}
		if recordSrv, err = startServer(cfa, nbModel); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	st.e2e("setup_s", median(setups), "s")
	st.details["setup_s_samples"] = setups

	batchV, err := newVerifier(c45Model, records)
	if err != nil {
		return err
	}
	recordV, err := newVerifier(nbModel, records)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	client := newClient(conns)
	defer client.CloseIdleConnections()

	// batch-c45: closed loop, conns connections, 16 streams x 8 records.
	bodies, err := buildBatchBodies(records, rng, 32)
	if err != nil {
		return err
	}
	nextBatch := func(i int) ([]byte, int, func([]byte) bool) {
		b := bodies[i%len(bodies)]
		return b.body, batchItems * recordsPerItem, batchV.checkBatch(b)
	}
	batchURL := batchSrv.url + "/v1/score-batch"
	// The generator shares the box with the server: collect its garbage
	// now rather than in the middle of a window.
	runtime.GC()
	closedLoop(client, batchURL, conns, batchWarm, nextBatch)
	batchWin := time.Duration(float64(seconds) * (1 - recordShare) / batchWindows * float64(time.Second))
	var batchWins []window
	err = watchServer(st, traced, "batch-c45", batchSrv, func() error {
		for w := 0; w < batchWindows; w++ {
			win, err := measure(batchSrv, func() openResult {
				return openResult{Outcomes: closedLoop(client, batchURL, conns, batchWin, nextBatch)}
			})
			if err != nil {
				return err
			}
			batchWins = append(batchWins, win)
		}
		return nil
	})
	if err != nil {
		return err
	}
	batchOut, err := batchFigures(st, batchWins)
	if err != nil {
		return err
	}
	// The batch server leaves before the open-loop phase so that its idle
	// runtime (scavenger, timers) shares nothing with the one measured.
	client.CloseIdleConnections()
	if err := batchSrv.stop(); err != nil {
		return fmt.Errorf("batch-c45 server: %w", err)
	}
	batchSrv = nil

	// record-nb: open loop at three fixed rates over 64 streams, one
	// window per rate per round.
	sb, err := newSingleBodies(records)
	if err != nil {
		return err
	}
	cur := streamCursors(rng, len(records))
	recordURL := recordSrv.url + "/v1/score"
	runtime.GC()
	openLoop(client, recordURL, poissonSchedule(rng, cur, len(records), rates[0].rate, recordWarm), conns, sb.body, recordV.checkSingle)
	recordWins := make([][]window, len(rates))
	err = watchServer(st, traced, "record-nb", recordSrv, func() error {
		for round := 0; round < rateRounds; round++ {
			for i, r := range rates {
				arr := poissonSchedule(rng, cur, len(records), r.rate, int(r.rate*recordWin))
				win, err := measure(recordSrv, func() openResult {
					return openLoop(client, recordURL, arr, conns, sb.body, recordV.checkSingle)
				})
				if err != nil {
					return err
				}
				recordWins[i] = append(recordWins[i], win)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	points, lightRTT, err := recordFigures(st, recordWins, conns)
	if err != nil {
		return err
	}

	for _, v := range []*verifier{batchV, recordV} {
		for _, e := range v.errs {
			st.checks = append(st.checks, "serve: "+e)
		}
	}

	if traced {
		lag, backlog := 0.0, 0
		for _, p := range points {
			lag, backlog = max(lag, p.LagP99ms), max(backlog, p.BacklogMax)
		}
		st.layer("gen.lag_p99_ms", lag, "ms")
		st.layer("gen.backlog_max", float64(backlog), "count")
		batchB, err := core.LoadBundleFile(c45Model)
		if err != nil {
			return err
		}
		recordB, err := core.LoadBundleFile(nbModel)
		if err != nil {
			return err
		}
		light := poissonSchedule(rng, cur, len(records), rates[0].rate, 2*minSamples)
		if err := replayAll(st, rec, batchB, recordB, bodies, sb, light, batchOut, lightRTT); err != nil {
			return err
		}
		spans := filepath.Join(dir, "spans.jsonl")
		if err := rec.writeJSONLines(spans); err != nil {
			return err
		}
		st.details["spans_file"] = spans
	}

	if err := recordSrv.stop(); err != nil {
		return fmt.Errorf("record-nb server: %w", err)
	}
	recordSrv = nil
	// The bundles are 8 MB each and every seed writes its own: keep the
	// checkout small over many runs.
	for _, m := range []string{c45Model, nbModel} {
		if err := os.Remove(m); err != nil {
			return err
		}
	}
	return report(st, traced, dir)
}

// offlinePhase runs the researcher's pipeline and reports its metrics. It
// writes the training trace to csv for `cfa train` and returns the mixed
// traces' records, dropping everything else so the generator's heap stays
// small while it shares the box with the servers.
func offlinePhase(st *runState, sc scenario, seed int64, rec *recorder, traced bool, csv string) ([][]float64, error) {
	pr, err := runPipeline(sc, seed, rec, 0)
	if err != nil {
		return nil, err
	}
	st.res.Attempted++
	if err := pr.checkAUCs(); err != nil {
		st.checks = append(st.checks, "offline-detect: "+err.Error())
		st.res.Failed++
	}
	st.e2e("pipeline_s", pr.Wall.Seconds(), "s")
	st.e2e("detect_auc", pr.meanAUC(), "auc")
	st.details["auc"] = pr.AUC
	st.details["pipeline_test_records"] = pr.TestRecords
	if traced {
		s := func(name string) float64 { return pr.Stage[name].Seconds() }
		st.layer("sim.s", s("simulate"), "s")
		st.layer("sim.events_per_s", float64(pr.Events)/s("simulate"), "1/s")
		st.layer("extract.s", s("extract"), "s")
		st.layer("discretize.s", s("discretize"), "s")
		for _, k := range learnerKeys {
			st.layer("train.s."+k, s("train."+k), "s")
			st.layer("score.us_per_rec."+k, s("score."+k)*1e6/float64(pr.TestRecords), "us")
		}
		st.layer("compile.s", s("compile"), "s")
		st.layer("evaluate.s", s("evaluate"), "s")
	}
	if err := writeTraceCSV(csv, pr.Train); err != nil {
		return nil, err
	}
	var records [][]float64
	for _, t := range pr.Mixed {
		for _, v := range t {
			records = append(records, v.Values)
		}
	}
	return records, nil
}

// window is one measured stretch of load and the server CPU it cost.
type window struct {
	openResult
	cpu time.Duration
}

// measure runs load against srv, reading the server's CPU time from /proc
// around it: the generator's own CPU stays out of the figure.
func measure(srv *server, load func() openResult) (window, error) {
	c0, err := processCPU(srv.pid())
	if err != nil {
		return window{}, err
	}
	or := load()
	c1, err := processCPU(srv.pid())
	if err != nil {
		return window{}, err
	}
	return window{openResult: or, cpu: c1 - c0}, nil
}

// cpuPerRecord is the server CPU per record answered with a 200.
func (w window) cpuPerRecord() (float64, error) {
	scored := 0
	for _, o := range w.Outcomes {
		if o.Status == 200 {
			scored += o.Records
		}
	}
	if scored == 0 {
		return 0, errors.New("no request succeeded")
	}
	return float64(w.cpu) / float64(time.Microsecond) / float64(scored), nil
}

// okRate is records answered in full per second over the window, from
// the first request due to the last response.
func (w window) okRate() float64 {
	var first, last time.Time
	ok := 0
	for _, o := range w.Outcomes {
		if first.IsZero() || o.Due.Before(first) {
			first = o.Due
		}
		last = maxTime(last, o.Done)
		if o.OK {
			ok += o.Records
		}
	}
	return float64(ok) / last.Sub(first).Seconds()
}

// watchServer runs a phase. In the traced run it also reports the
// server's overload counters over the phase and its highest brownout
// level, sampled every 100ms.
func watchServer(st *runState, traced bool, phase string, srv *server, load func() error) error {
	if !traced {
		return load()
	}
	before, err := scrapeMetrics(srv.url)
	if err != nil {
		return err
	}
	p := startPoller(srv.url)
	err = load()
	level, perr := p.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	after, err := scrapeMetrics(srv.url)
	if err != nil {
		return err
	}
	s0, d0 := admitCounts(before)
	s1, d1 := admitCounts(after)
	st.layer(phase+".serve.admit.shed", s1-s0, "count")
	st.layer(phase+".serve.admit.degraded", d1-d0, "count")
	st.layer(phase+".serve.brownout_level_max", level, "level")
	return nil
}

// batchFigures reports the closed-loop phase: throughput and server CPU
// per record as medians over its windows, latency quantiles over every
// request. It returns the pooled outcomes.
func batchFigures(st *runState, wins []window) ([]outcome, error) {
	var all []outcome
	var tput, cpu []float64
	for _, w := range wins {
		c, err := w.cpuPerRecord()
		if err != nil {
			return nil, fmt.Errorf("batch-c45: %w", err)
		}
		cpu = append(cpu, c)
		tput = append(tput, w.okRate())
		all = append(all, w.Outcomes...)
	}
	st.count(all)
	ms := msOf(latencies(all))
	p50, err := quantile(ms, 0.50)
	if err != nil {
		return nil, fmt.Errorf("batch-c45: %w", err)
	}
	p99, err := quantile(ms, 0.99)
	if err != nil {
		return nil, fmt.Errorf("batch-c45: %w (raise --seconds)", err)
	}
	st.e2e("throughput_rec_s", median(tput), "rec/s")
	st.e2e("latency_p50_ms", p50, "ms")
	st.e2e("latency_p99_ms", p99, "ms")
	st.e2e("cpu_us_per_rec.batch-c45", median(cpu), "us")
	st.details["batch"] = map[string]any{"requests": len(all), "windows": len(wins),
		"throughput_rec_s": tput, "cpu_us_per_rec": cpu}
	return all, nil
}

// recordFigures reports the open-loop phase: each rate's quantiles over
// all its windows, and server CPU per record as the median over every
// window. It returns the rate points and the light
// rate's round trips in microseconds.
func recordFigures(st *runState, rateWins [][]window, conns int) ([]ratePoint, []float64, error) {
	var points []ratePoint
	var cpu, lightRTT []float64
	for i, wins := range rateWins {
		p, err := ratePointOf(rates[i].name, rates[i].rate, wins, conns)
		if err != nil {
			return nil, nil, fmt.Errorf("record-nb %s: %w (raise --seconds)", rates[i].name, err)
		}
		points = append(points, p)
		for _, w := range wins {
			c, err := w.cpuPerRecord()
			if err != nil {
				return nil, nil, fmt.Errorf("record-nb %s: %w", rates[i].name, err)
			}
			cpu = append(cpu, c)
			st.count(w.Outcomes)
			if i == 0 {
				for _, o := range w.Outcomes {
					lightRTT = append(lightRTT, float64(o.rtt())/float64(time.Microsecond))
				}
			}
		}
	}
	st.details["rates"] = points
	for _, p := range points {
		st.e2e("latency_p50_ms."+p.Name, p.P50ms, "ms")
		// Reported, not gated: on a shared 2-CPU box the open-loop p99
		// swings by 2-5x between runs with stalls the program does not
		// cause, so it cannot bound a regression. See README.md.
		st.info("latency_p99_ms."+p.Name, p.P99ms, "ms")
	}
	okRate, _ := maxOKRate(points, p99LimitMS)
	st.e2e("max_ok_rate_rec_s", okRate, "rec/s")
	st.e2e("cpu_us_per_rec.record-nb", median(cpu), "us")
	return points, lightRTT, nil
}

// ratePointOf summarises one open-loop rate from its windows. Latency
// quantiles pool every window's requests, so a stall that lands in one
// window counts in proportion to its share of the whole. The achieved
// rate is the median over windows, failures are summed, and the backlog
// counts as growing when it grew in most windows.
func ratePointOf(name string, rate float64, wins []window, conns int) (ratePoint, error) {
	p := ratePoint{Name: name, Rate: rate, Windows: len(wins)}
	var lat, lags []time.Duration
	var achieved []float64
	growing := 0
	for _, w := range wins {
		for _, o := range w.Outcomes {
			lat = append(lat, o.latency())
			if !o.OK {
				p.Failed++
			}
		}
		achieved = append(achieved, w.okRate())
		lags = append(lags, w.Lag...)
		for _, b := range w.Backlog {
			p.BacklogMax = max(p.BacklogMax, b)
		}
		if backlogGrowing(w.Backlog, conns) {
			growing++
		}
	}
	p.Attempted = len(lat)
	ms := msOf(lat)
	var err error
	if p.P50ms, err = quantile(ms, 0.50); err != nil {
		return p, err
	}
	if p.P99ms, err = quantile(ms, 0.99); err != nil {
		return p, err
	}
	p.Achieved = median(achieved)
	p.Growing = 2*growing > len(wins)
	p.LagP99ms, err = quantile(msOf(lags), 0.99)
	return p, err
}

// latencies lists each outcome's latency.
func latencies(os []outcome) []time.Duration {
	out := make([]time.Duration, len(os))
	for i, o := range os {
		out[i] = o.latency()
	}
	return out
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// replayAll runs the traced replay of both serve phases and reports their
// per-layer metrics. batchOut and lightRTT give the HTTP round trips the
// replayed layers are subtracted from.
func replayAll(st *runState, rec *recorder, batchB, recordB *core.Bundle, bodies []batchBody,
	sb *singleBodies, light []arrival, batchOut []outcome, lightRTT []float64) error {
	var req int64 = 1
	rb := newReplayer(batchB, "batch-c45", rec)
	for i := 0; i < 4*len(bodies); i++ {
		if err := rb.batch(req, bodies[i%len(bodies)].body); err != nil {
			return err
		}
		req++
	}
	rr := newReplayer(recordB, "record-nb", rec)
	for _, a := range light {
		if err := rr.single(req, sb.body(a)); err != nil {
			return err
		}
		req++
	}
	var batchRTT []float64
	for _, o := range batchOut {
		batchRTT = append(batchRTT, float64(o.rtt())/float64(time.Microsecond))
	}
	for _, x := range []struct {
		r   *replayer
		rtt []float64
	}{{rb, batchRTT}, {rr, lightRTT}} {
		ls := x.r.layers()
		p := x.r.phase + ".serve."
		st.layer(p+"decode.us_per_rec", ls.DecodeUS, "us")
		st.layer(p+"decode.bytes_per_rec", ls.BytesPerRec, "bytes")
		st.layer(p+"transform.us_per_rec", ls.TransformUS, "us")
		st.layer(p+"kernel.us_per_rec", ls.KernelUS, "us")
		st.layer(p+"observe.us_per_rec", ls.ObserveUS, "us")
		st.layer(p+"encode.us_per_rec", ls.EncodeUS, "us")
		rtt := median(x.rtt)
		st.layer(p+"rtt_us_per_req", rtt, "us")
		st.layer(p+"unexplained_us_per_req", rtt-ls.ReqMedianUS, "us")
	}
	return nil
}

// report prints every metric by name with its unit, writes the
// self-describing result file, and prints the result object last.
func report(st *runState, traced bool, dir string) error {
	st.res.Correct = len(st.checks) == 0
	if traced {
		st.res.Metrics = st.layers
	}
	st.details["result"] = st.res
	st.details["reported_not_gated"] = st.extra
	st.details["checks_failed"] = st.checks
	b, err := json.MarshalIndent(st.details, "", "  ")
	if err != nil {
		return err
	}
	file := filepath.Join(dir, "result.json")
	if err := os.WriteFile(file, b, 0o644); err != nil {
		return err
	}
	meta := st.details["meta"].(map[string]any)
	fmt.Printf("perfbench %s seed %v: git %v, %v, nproc %v, GOMAXPROCS %v, %v s measured; details in %s\n",
		meta["workload"], meta["seed"], meta["git_rev"], meta["go_version"], meta["nproc"], meta["gomaxprocs"], meta["seconds"], file)
	samples := fmt.Sprint("pipeline records scored per learner ", st.details["pipeline_test_records"])
	if b, ok := st.details["batch"].(map[string]any); ok {
		samples += fmt.Sprint("; batch-c45 requests ", b["requests"])
	}
	if ps, ok := st.details["rates"].([]ratePoint); ok {
		for _, p := range ps {
			samples += fmt.Sprintf("; record-nb %s requests %d", p.Name, p.Attempted)
		}
	}
	fmt.Println("  samples:", samples)
	for _, name := range sortedKeys(st.res.Metrics) {
		m := st.res.Metrics[name]
		fmt.Printf("  %-42s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if !traced {
		for _, name := range sortedKeys(st.extra) {
			m := st.extra[name]
			fmt.Printf("  %-42s %14.6g %s (reported, not gated)\n", name, m.Value, m.Unit)
		}
	}
	for _, c := range st.checks {
		fmt.Println("  CHECK FAILED:", c)
	}
	line, err := json.Marshal(st.res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !st.res.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

// newVerifier computes, in process, the raw score the bundle file gives
// every record: the value each served verdict must carry. The bundle is
// dropped once the scores are known.
func newVerifier(model string, records [][]float64) (*verifier, error) {
	b, err := core.LoadBundleFile(model)
	if err != nil {
		return nil, err
	}
	b.Analyzer.Compile()
	v := &verifier{expected: make([]float64, len(records))}
	for id, vals := range records {
		x, err := b.Discretizer.Transform(vals)
		if err != nil {
			return nil, err
		}
		v.expected[id] = b.Analyzer.Score(x, b.Scorer)
	}
	return v, nil
}

// poller samples the server's brownout level every 100ms.
type poller struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	level float64
	err   error
}

func startPoller(url string) *poller {
	p := &poller{stopc: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			m, err := scrapeMetrics(url)
			if err != nil {
				p.err = err
				return
			}
			p.level = max(p.level, sumSeries(m, "cfa_brownout_level", nil))
			select {
			case <-p.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// stop ends polling and returns the highest level seen.
func (p *poller) stop() (float64, error) {
	close(p.stopc)
	p.wg.Wait()
	return p.level, p.err
}

func writeTraceCSV(path string, vs []features.Vector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := features.WriteCSV(f, vs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitRev is the checked-out commit when the benchmark runs inside a git
// work tree, else "unknown".
func gitRev() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
