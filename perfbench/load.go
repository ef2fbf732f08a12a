package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"crossfeature/internal/serve"
)

// outcome is one HTTP operation as the client saw it.
type outcome struct {
	Due, Sent, Done time.Time // Due == Sent in a closed loop
	Records         int       // records in the request
	OK              bool      // 200, full-quality, one verdict per record
	Degraded        bool      // X-CFA-Degraded was set
	Status          int       // 0 on a transport error
}

// latency is the time from when the request was due to its response: in
// an open loop it includes the wait for a free connection.
func (o outcome) latency() time.Duration { return o.Done.Sub(o.Due) }

// rtt is the time from the first byte sent to the response.
func (o outcome) rtt() time.Duration { return o.Done.Sub(o.Sent) }

// newClient returns a client holding at most conns connections to the
// server, all kept alive.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// verifier checks responses against scores computed in process from the
// same bundle file. Records carry their id+1 in Time, which the server
// echoes, so every verdict is matched to the record it answers.
type verifier struct {
	expected []float64 // raw score per record id

	mu   sync.Mutex
	errs []string
}

// fail records a correctness violation (the first few are kept).
func (v *verifier) fail(format string, args ...any) {
	v.mu.Lock()
	if len(v.errs) < 5 {
		v.errs = append(v.errs, fmt.Sprintf(format, args...))
	}
	v.mu.Unlock()
}

// results checks one stream's verdicts against the ids sent, reporting
// whether the answer was complete.
func (v *verifier) results(rs []serve.RecordResult, ids []int) bool {
	if len(rs) != len(ids) {
		v.fail("short response: %d verdicts for %d records", len(rs), len(ids))
		return false
	}
	for j, r := range rs {
		id := ids[j]
		want := v.expected[id]
		switch {
		case r.Time != float64(id+1):
			v.fail("verdict %d answers record %v, sent %d", j, r.Time, id+1)
			return false
		case math.IsNaN(r.Score) || math.IsInf(r.Score, 0):
			v.fail("record %d: non-finite score %v", id, r.Score)
			return false
		case math.IsNaN(want) || math.IsInf(want, 0):
			if !r.Invalid || r.Score != -1 {
				v.fail("record %d: in-process score %v is not finite but served %v (invalid=%v)", id, want, r.Score, r.Invalid)
				return false
			}
		case r.Score != want:
			v.fail("record %d: served score %v, in-process score %v", id, r.Score, want)
			return false
		}
	}
	return true
}

// do sends one request and classifies the response. check decodes and
// verifies a 200 body.
func do(client *http.Client, url string, body []byte, o *outcome, check func([]byte) bool) {
	o.Sent = time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		o.Done = time.Now()
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.Done = time.Now()
	o.Status = resp.StatusCode
	o.Degraded = resp.Header.Get("X-CFA-Degraded") != ""
	if err != nil || resp.StatusCode != http.StatusOK || o.Degraded {
		return
	}
	o.OK = check(b)
}

// batchBody is one /v1/score-batch request: 16 streams x 8 records.
type batchBody struct {
	body []byte
	ids  [][]int // record ids per item
}

const (
	numStreams     = 64
	batchItems     = 16
	recordsPerItem = 8
)

func streamName(s int) string { return fmt.Sprintf("s%02d", s) }

// streamCursors give each stream its own walk through the records, from
// a seeded start, so streams see consecutive audit records as a node's
// detector would.
func streamCursors(rng *rand.Rand, n int) []int {
	c := make([]int, numStreams)
	for i := range c {
		c[i] = rng.Intn(n)
	}
	return c
}

// buildBatchBodies marshals k batch requests over the records. Each body
// takes the next 16 streams round-robin and the next 8 records of each.
func buildBatchBodies(records [][]float64, rng *rand.Rand, k int) ([]batchBody, error) {
	cur := streamCursors(rng, len(records))
	out := make([]batchBody, k)
	for b := range out {
		req := serve.BatchScoreRequest{Items: make([]serve.ScoreRequest, batchItems)}
		ids := make([][]int, batchItems)
		for j := range req.Items {
			s := (b*batchItems + j) % numStreams
			recs := make([]serve.Record, recordsPerItem)
			for r := range recs {
				id := cur[s] % len(records)
				cur[s]++
				recs[r] = serve.Record{Time: float64(id + 1), Values: records[id]}
				ids[j] = append(ids[j], id)
			}
			req.Items[j] = serve.ScoreRequest{Stream: streamName(s), Records: recs}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("marshal batch body: %w", err)
		}
		out[b] = batchBody{body: body, ids: ids}
	}
	return out, nil
}

// checkBatch decodes and verifies a /v1/score-batch response.
func (v *verifier) checkBatch(b batchBody) func([]byte) bool {
	return func(body []byte) bool {
		var resp serve.BatchScoreResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			v.fail("batch response: %v", err)
			return false
		}
		if len(resp.Items) != len(b.ids) {
			v.fail("short batch response: %d items for %d sent", len(resp.Items), len(b.ids))
			return false
		}
		for i, it := range resp.Items {
			if it.Error != "" {
				v.fail("batch item %d: %s", i, it.Error)
				return false
			}
			if !v.results(it.Results, b.ids[i]) {
				return false
			}
		}
		return true
	}
}

// closedLoop keeps conns requests in flight, each connection sending the
// next request as soon as its previous response is in, for dur. next
// returns the i-th request's body, its record count and its check.
func closedLoop(client *http.Client, url string, conns int, dur time.Duration,
	next func(i int) (body []byte, records int, check func([]byte) bool)) []outcome {
	stop := time.Now().Add(dur)
	var seq atomic.Int64
	per := make([][]outcome, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				body, n, check := next(int(seq.Add(1) - 1))
				o := outcome{Records: n}
				do(client, url, body, &o, check)
				o.Due = o.Sent
				per[w] = append(per[w], o)
			}
		}(w)
	}
	wg.Wait()
	var out []outcome
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// arrival is one scheduled open-loop request.
type arrival struct {
	At     time.Duration // offset from the schedule's start
	Stream int
	ID     int // record id
}

// poissonSchedule draws count Poisson arrivals at rate per second, each
// for a uniformly chosen stream, which sends its next record of n.
func poissonSchedule(rng *rand.Rand, cur []int, n int, rate float64, count int) []arrival {
	out := make([]arrival, count)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		s := rng.Intn(numStreams)
		out[i] = arrival{At: time.Duration(t * float64(time.Second)), Stream: s, ID: cur[s] % n}
		cur[s]++
	}
	return out
}

// openResult is one open-loop schedule's outcomes and generator health.
type openResult struct {
	Outcomes []outcome
	Lag      []time.Duration // how late the generator dispatched each arrival
	Backlog  []int           // requests waiting for a connection at each dispatch
}

// openLoop dispatches each arrival at its due time, whatever the server
// is doing, into a queue drained by conns connections. Latency counts
// from the due time, so time spent waiting for a connection behind a
// stalled request is charged to the request that waited (no coordinated
// omission). body builds the request for arrival i; check verifies it.
func openLoop(client *http.Client, url string, arrivals []arrival, conns int,
	body func(arrival) []byte, check func(arrival) func([]byte) bool) openResult {
	res := openResult{
		Outcomes: make([]outcome, len(arrivals)),
		Lag:      make([]time.Duration, len(arrivals)),
		Backlog:  make([]int, len(arrivals)),
	}
	// Sized to the number of sends, so the dispatcher never blocks: a
	// blocked dispatcher would stop the clock the open loop exists to keep.
	queue := make(chan int, len(arrivals))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				a := arrivals[i]
				o := &res.Outcomes[i]
				o.Records = 1
				do(client, url, body(a), o, check(a))
			}
		}()
	}
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.Outcomes[i].Due = due
		res.Lag[i] = time.Since(due)
		res.Backlog[i] = len(queue)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

// backlogGrowing reports whether the generator's queue rose over the
// schedule: the mean backlog over its last quarter exceeds twice that
// over its second quarter plus one request per connection. A queue in
// steady state fluctuates around one level; one fed faster than it
// drains grows with time.
func backlogGrowing(backlog []int, conns int) bool {
	n := len(backlog)
	if n < 8 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(backlog[3*n/4:]) > 2*mean(backlog[n/4:n/2])+float64(conns)
}

// singleBodies builds /v1/score bodies by splicing pre-marshalled records
// into a per-stream envelope, byte-identical to json.Marshal of the
// ScoreRequest, so the generator spends no marshalling time per arrival.
type singleBodies struct {
	recJSON [][]byte
}

func newSingleBodies(records [][]float64) (*singleBodies, error) {
	sb := &singleBodies{recJSON: make([][]byte, len(records))}
	for id, vals := range records {
		b, err := json.Marshal(serve.Record{Time: float64(id + 1), Values: vals})
		if err != nil {
			return nil, fmt.Errorf("marshal record %d: %w", id, err)
		}
		sb.recJSON[id] = b
	}
	return sb, nil
}

func (sb *singleBodies) body(a arrival) []byte {
	rec := sb.recJSON[a.ID]
	b := make([]byte, 0, len(rec)+40)
	b = append(b, `{"stream":"`...)
	b = append(b, streamName(a.Stream)...)
	b = append(b, `","records":[`...)
	b = append(b, rec...)
	return append(b, "]}"...)
}

// checkSingle decodes and verifies a /v1/score response.
func (v *verifier) checkSingle(a arrival) func([]byte) bool {
	return func(body []byte) bool {
		var resp serve.ScoreResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			v.fail("score response: %v", err)
			return false
		}
		return v.results(resp.Results, []int{a.ID})
	}
}
