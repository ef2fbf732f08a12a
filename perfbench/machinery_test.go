package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// A server that stalls its first request must charge the stall to every
// request that was due during it: those requests waited for the one
// connection, and an open-loop client that started their clocks at send
// time would report them as fast (coordinated omission).
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	var arr []arrival
	for i := 0; i < 50; i++ {
		arr = append(arr, arrival{At: time.Duration(i) * 10 * time.Millisecond})
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	res := openLoop(client, srv.URL, arr, 1,
		func(arrival) []byte { return []byte(`{}`) },
		func(arrival) func([]byte) bool { return func([]byte) bool { return true } })

	for i, o := range res.Outcomes {
		if !o.OK {
			t.Fatalf("request %d failed (status %d)", i, o.Status)
		}
	}
	if got := res.Outcomes[0].latency(); got < stall {
		t.Fatalf("stalled request latency %v, want at least %v", got, stall)
	}
	// Request 10 was due 100ms in, behind the stalled one: it waited until
	// the stall ended, ~200ms after it was due, though its own round trip
	// was fast.
	o := res.Outcomes[10]
	if o.latency() < stall-arr[10].At-5*time.Millisecond {
		t.Errorf("request due during the stall: latency %v, want about %v", o.latency(), stall-arr[10].At)
	}
	if o.rtt() > o.latency()/2 {
		t.Errorf("request due during the stall: rtt %v should be a small part of its latency %v", o.rtt(), o.latency())
	}
	// The generator kept its schedule: requests queued behind the stall
	// instead of being sent late.
	maxBacklog := 0
	for _, b := range res.Backlog {
		maxBacklog = max(maxBacklog, b)
	}
	if maxBacklog < 20 {
		t.Errorf("backlog peaked at %d during a 300ms stall of 10ms arrivals, want at least 20", maxBacklog)
	}
	lag, err := quantile(msOf(res.Lag), 0.5)
	if err != nil || lag > 5 {
		t.Errorf("median generator lag %vms (%v), want under 5ms: the dispatcher must not wait for connections", lag, err)
	}
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: quantile sorts
		}
		return s
	}
	if v, err := quantile(samples(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (nearest rank, 10 beyond)", v, err)
	}
	if _, err := quantile(samples(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := quantile(samples(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := quantile(samples(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("quantile of no samples must fail")
	}
}

func TestMaxOKRate(t *testing.T) {
	pt := func(rate, achieved, p99 float64, failed int, growing bool) ratePoint {
		return ratePoint{Rate: rate, Achieved: achieved, P99ms: p99, Failed: failed, Growing: growing}
	}
	cases := []struct {
		name   string
		points []ratePoint
		want   float64
		ok     bool
	}{
		{"all pass", []ratePoint{pt(600, 601, 5, 0, false), pt(1200, 1199, 10, 0, false), pt(1800, 1803, 40, 0, false)}, 1803, true},
		{"peak over limit", []ratePoint{pt(600, 601, 5, 0, false), pt(1200, 1199, 10, 0, false), pt(1800, 1700, 900, 0, false)}, 1199, true},
		{"peak failed an operation", []ratePoint{pt(600, 601, 5, 0, false), pt(1200, 1199, 10, 0, false), pt(1800, 1803, 40, 1, false)}, 1199, true},
		{"peak backlog growing", []ratePoint{pt(600, 601, 5, 0, false), pt(1200, 1199, 10, 0, false), pt(1800, 1803, 40, 0, true)}, 1199, true},
		{"only light", []ratePoint{pt(600, 601, 5, 0, false), pt(1200, 1199, 80, 0, false), pt(1800, 1803, 40, 0, true)}, 601, true},
		{"order does not matter", []ratePoint{pt(1800, 1803, 40, 0, false), pt(600, 601, 5, 0, false)}, 1803, true},
		{"none", []ratePoint{pt(600, 601, 60, 0, false)}, 0, false},
	}
	for _, c := range cases {
		got, ok := maxOKRate(c.points, 50)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: maxOKRate = %v, %v; want %v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// Fields 14 and 15 (utime, stime) are 150 and 50 ticks. The command
	// name holds spaces and parentheses, which must not shift the fields.
	line := "4242 (cfa (serve) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 7 0 100 1000000 500 18446744073709551615"
	got, err := parseProcStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 200 * clockTick; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseProcStatCPU("4242 (cfa) S 1 2"); err == nil {
		t.Error("a truncated stat line must fail")
	}
	if _, err := parseProcStatCPU("4242 cfa S"); err == nil {
		t.Error("a line without a command field must fail")
	}
	// CPU deltas across a busy loop in this process are positive.
	pid := os.Getpid()
	before, err := processCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	spin := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(spin) {
	}
	after, err := processCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d <= 0 || d > time.Second {
		t.Errorf("cpu delta over a 100ms spin = %v", d)
	}
}

func TestBacklogGrowing(t *testing.T) {
	steady := make([]int, 400)
	rising := make([]int, 400)
	rng := rand.New(rand.NewSource(1))
	for i := range steady {
		steady[i] = rng.Intn(6)
		rising[i] = i / 4
	}
	if backlogGrowing(steady, 2) {
		t.Error("a backlog fluctuating around one level is not growing")
	}
	if !backlogGrowing(rising, 2) {
		t.Error("a backlog rising with time is growing")
	}
}

func TestSelfTimesCountOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "stage", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "job", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "job", Start: 40, End: 80},  // overlaps job 2
		{ID: 4, Parent: 1, Name: "job", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	// stage covers [0,100]; children cover [10,80] and [90,100]: 80ns.
	if self["stage"] != 20 {
		t.Errorf("stage self time = %d, want 20", self["stage"])
	}
	if self["job"] != 50+40+30 {
		t.Errorf("job self time = %d, want 120", self["job"])
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP cfa_shed_total Requests shed.
# TYPE cfa_shed_total counter
cfa_shed_total 3
cfa_inflight_shed_total 2
cfa_brownout_verdicts_total{level="0"} 100
cfa_brownout_verdicts_total{level="2"} 7
cfa_brownout_level 1
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	shed, degraded := admitCounts(m)
	if shed != 5 || degraded != 7 {
		t.Errorf("shed, degraded = %v, %v; want 5, 7", shed, degraded)
	}
	if lvl := sumSeries(m, "cfa_brownout_level", nil); lvl != 1 {
		t.Errorf("brownout level = %v, want 1", lvl)
	}
	if _, err := parseMetrics(strings.NewReader("novalue\n")); err == nil {
		t.Error("a sample line without a value must fail")
	}
}

// Transport errors, non-200s, degraded 200s and short answers are all
// failed operations; only a complete full-quality 200 counts as OK.
func TestFailureAccounting(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"stream":"s00","results":[{"time":1,"score":0.5,"smoothed":0.5}]}`))
	})
	mux.HandleFunc("/shed", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	mux.HandleFunc("/timeout", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusRequestTimeout)
	})
	mux.HandleFunc("/degraded", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-CFA-Degraded", "nb-only")
		w.Write([]byte(`{"stream":"s00","results":[{"time":1,"score":0.5,"smoothed":0.5}]}`))
	})
	mux.HandleFunc("/short", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"stream":"s00","results":[]}`))
	})
	mux.HandleFunc("/wrong", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"stream":"s00","results":[{"time":1,"score":0.25,"smoothed":0.25}]}`))
	})
	srv := httptest.NewServer(mux)
	client := newClient(1)
	defer client.CloseIdleConnections()

	cases := []struct {
		path          string
		ok, degraded  bool
		status        int
		checkFailures int
	}{
		{"/ok", true, false, 200, 0},
		{"/shed", false, false, 429, 0},
		{"/timeout", false, false, 408, 0},
		{"/degraded", false, true, 200, 0},
		{"/short", false, false, 200, 1},
		{"/wrong", false, false, 200, 1},
	}
	for _, c := range cases {
		v := &verifier{expected: []float64{0.5}}
		var o outcome
		do(client, srv.URL+c.path, []byte(`{}`), &o, v.checkSingle(arrival{ID: 0}))
		if o.OK != c.ok || o.Degraded != c.degraded || o.Status != c.status || len(v.errs) != c.checkFailures {
			t.Errorf("%s: ok=%v degraded=%v status=%d check failures=%d (%v); want %v %v %d %d",
				c.path, o.OK, o.Degraded, o.Status, len(v.errs), v.errs, c.ok, c.degraded, c.status, c.checkFailures)
		}
	}
	srv.Close()
	var o outcome
	do(client, srv.URL+"/ok", []byte(`{}`), &o, func([]byte) bool { return true })
	if o.OK || o.Status != 0 {
		t.Errorf("transport error: ok=%v status=%d, want a failed operation with no status", o.OK, o.Status)
	}
}
