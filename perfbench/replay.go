package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"crossfeature/internal/core"
	"crossfeature/internal/ml"
	"crossfeature/internal/serve"
)

// batchKernelMin mirrors the serve layer's cutover: below this many rows
// a request scores row-major through ScoreEvents, at or above it through
// the batch ScoreAll kernel.
const batchKernelMin = 8

// replayer pushes a workload's own request bodies through the public
// functions each serve layer calls — JSON decode, Discretizer.Transform,
// ScoreAll/ScoreEvents, OnlineDetector.ObserveScore, JSON encode — with
// one span per layer per request. It runs in process, one request at a
// time, so each span is that layer's own cost with no queueing in it.
type replayer struct {
	bundle *core.Bundle
	det    *core.Detector
	phase  string
	rec    *recorder
	dets   map[string]*core.OnlineDetector
	out    bytes.Buffer
	bytes  int64
	recs   int
}

func newReplayer(b *core.Bundle, phase string, rec *recorder) *replayer {
	return &replayer{bundle: b, det: b.Detector(), phase: phase, rec: rec,
		dets: make(map[string]*core.OnlineDetector)}
}

// batch replays one /v1/score-batch body.
func (r *replayer) batch(req int64, body []byte) error {
	root := r.rec.begin(req, 0, r.phase+".request")
	defer r.rec.end(root)
	var in serve.BatchScoreRequest
	id := r.rec.begin(req, root, r.phase+".decode")
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&in)
	r.rec.end(id)
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	resp, err := r.score(req, root, in.Items)
	if err != nil {
		return err
	}
	id = r.rec.begin(req, root, r.phase+".encode")
	r.out.Reset()
	err = json.NewEncoder(&r.out).Encode(serve.BatchScoreResponse{Items: resp, RecordsScored: r.count(in.Items)})
	r.rec.end(id)
	r.bytes += int64(len(body))
	return err
}

// single replays one /v1/score body.
func (r *replayer) single(req int64, body []byte) error {
	root := r.rec.begin(req, 0, r.phase+".request")
	defer r.rec.end(root)
	var in serve.ScoreRequest
	id := r.rec.begin(req, root, r.phase+".decode")
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&in)
	r.rec.end(id)
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	resp, err := r.score(req, root, []serve.ScoreRequest{in})
	if err != nil {
		return err
	}
	id = r.rec.begin(req, root, r.phase+".encode")
	r.out.Reset()
	err = json.NewEncoder(&r.out).Encode(serve.ScoreResponse{Stream: in.Stream, Results: resp[0].Results})
	r.rec.end(id)
	r.bytes += int64(len(body))
	return err
}

func (r *replayer) count(items []serve.ScoreRequest) int {
	n := 0
	for _, it := range items {
		n += len(it.Records)
	}
	return n
}

// score runs the transform, kernel and observe layers over the items.
func (r *replayer) score(req int64, root int, items []serve.ScoreRequest) ([]serve.BatchItemResult, error) {
	id := r.rec.begin(req, root, r.phase+".transform")
	var flat [][]int
	for _, it := range items {
		for _, rec := range it.Records {
			x, err := r.bundle.Discretizer.Transform(rec.Values)
			if err != nil {
				r.rec.end(id)
				return nil, fmt.Errorf("replay transform: %w", err)
			}
			flat = append(flat, x)
		}
	}
	r.rec.end(id)

	id = r.rec.begin(req, root, r.phase+".kernel")
	an := r.det.Analyzer
	var scores []float64
	if len(flat) >= batchKernelMin {
		scores = an.ScoreAll(ml.DatasetOf(an.Attrs, flat), r.det.Scorer)
	} else {
		scores = an.ScoreEvents(flat, r.det.Scorer)
	}
	r.rec.end(id)

	id = r.rec.begin(req, root, r.phase+".observe")
	out := make([]serve.BatchItemResult, len(items))
	off := 0
	for i, it := range items {
		od := r.dets[it.Stream]
		if od == nil {
			od = core.NewOnlineDetector(r.det)
			r.dets[it.Stream] = od
		}
		rs := make([]serve.RecordResult, len(it.Records))
		for j := range it.Records {
			st := od.ObserveScore(scores[off])
			off++
			rs[j] = serve.RecordResult{Time: it.Records[j].Time, Score: st.Score, Smoothed: st.Smoothed,
				Anomaly: st.Score < r.det.Threshold, Alarm: st.Alarm, Raised: st.Raised, Cleared: st.Cleared}
			if math.IsNaN(st.Score) || math.IsInf(st.Score, 0) {
				rs[j].Score, rs[j].Anomaly, rs[j].Invalid = -1, true, true
			}
		}
		out[i] = serve.BatchItemResult{Stream: it.Stream, Results: rs}
	}
	r.rec.end(id)
	r.recs += len(flat)
	return out, nil
}

// layerStats are one phase's per-layer figures from the replay spans.
type layerStats struct {
	DecodeUS, TransformUS, KernelUS, ObserveUS, EncodeUS float64 // self time per record
	BytesPerRec                                          float64
	ReqMedianUS                                          float64 // median replayed request
}

// layers computes a phase's per-layer self times from its spans.
func (r *replayer) layers() layerStats {
	self := selfTimes(r.rec.spans)
	per := func(layer string) float64 {
		return float64(self[r.phase+"."+layer]) / float64(time.Microsecond) / float64(r.recs)
	}
	var reqs []float64
	for _, s := range r.rec.spans {
		if s.Name == r.phase+".request" {
			reqs = append(reqs, float64(s.End-s.Start)/float64(time.Microsecond))
		}
	}
	return layerStats{
		DecodeUS: per("decode"), TransformUS: per("transform"), KernelUS: per("kernel"),
		ObserveUS: per("observe"), EncodeUS: per("encode"),
		BytesPerRec: float64(r.bytes) / float64(r.recs),
		ReqMedianUS: median(reqs),
	}
}
