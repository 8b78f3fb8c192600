package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// maxInflight bounds the generator's outstanding requests. A request due
// while this many are outstanding is not sent and counts as failed, so an
// overloaded server cannot make the generator grow without limit.
const maxInflight = 4096

var errGeneratorFull = errors.New("load generator: too many requests in flight")

// request is one scheduled HTTP call: at is its due time from the start
// of its stream.
type request struct {
	at   time.Duration
	path string
	body []byte
	q    query // what was asked, for the oracle
}

// query is the decoded content of a query or ingest request.
type query struct {
	kind    string
	source  int
	targets []int
	target  int
	hops    int
	edges   [][2]uint32
}

// response holds the fields of the server's query and ingest answers that
// the benchmark reads.
type response struct {
	Visited      int64   `json:"visited"`
	Eccentricity int32   `json:"eccentricity"`
	Distances    []int32 `json:"distances"`
	Closeness    float64 `json:"closeness"`
	Reachable    *bool   `json:"reachable"`
	Count        int64   `json:"count"`
	WaitMicros   int64   `json:"wait_us"`
	RunMicros    int64   `json:"run_us"`
	DeltaArcs    int64   `json:"delta_arcs"` // ingest answers
}

// outcome is what happened to one request. Latency runs from the due
// time, so a late generator or a stalled server shows in every request
// behind the stall.
type outcome struct {
	// at is the request's offset from its phase's start: the due time in
	// an open loop, the completion in a closed loop.
	at      time.Duration
	lag     time.Duration // dispatch time minus due time
	sendLat time.Duration // from dispatch to the decoded answer
	latency time.Duration // from due time to the decoded answer
	status  int
	err     error
	resp    *response // nil unless answered, or once dropped by a closed loop
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// latencyMS returns the latencies in ms, failures as +Inf so that they
// miss every latency limit.
func latencyMS(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i := range outs {
		xs[i] = inf
		if outs[i].ok() {
			xs[i] = ms(outs[i].latency)
		}
	}
	return xs
}

// schedule draws Poisson arrivals at rate per second over dur from rng
// and builds each request with mk.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, mk func(*rand.Rand) request) []request {
	var reqs []request
	for t := time.Duration(rng.ExpFloat64() / rate * 1e9); t < dur; t += time.Duration(rng.ExpFloat64() / rate * 1e9) {
		r := mk(rng)
		r.at = t
		reqs = append(reqs, r)
	}
	return reqs
}

// loadgen sends scheduled requests to one server over HTTP/2 cleartext,
// so concurrent requests share connections as streams.
type loadgen struct {
	base   string
	client *http.Client

	inflight    atomic.Int64
	inflightMax atomic.Int64
}

func newLoadgen(base string, conns int) *loadgen {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	tr := &http.Transport{
		Protocols:       &p,
		MaxConnsPerHost: conns,
		HTTP2:           &http.HTTP2Config{MaxConcurrentStreams: maxInflight},
	}
	return &loadgen{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// run sends every stream's requests open-loop, all streams starting
// together, and returns once every request has finished.
func (lg *loadgen) run(ctx context.Context, streams ...[]request) [][]outcome {
	start := time.Now().Add(2 * time.Millisecond)
	outs := make([][]outcome, len(streams))
	var wg sync.WaitGroup
	for s, reqs := range streams {
		outs[s] = make([]outcome, len(reqs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			lg.dispatch(ctx, start, reqs, outs[s], &wg)
		}()
	}
	wg.Wait()
	return outs
}

// dispatch sends reqs at their due times. Each request runs on its own
// goroutine, counted in wg, so a slow answer never delays the next send.
func (lg *loadgen) dispatch(ctx context.Context, start time.Time, reqs []request, outs []outcome, wg *sync.WaitGroup) {
	for i := range reqs {
		due := start.Add(reqs[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := &outs[i]
		o.at = reqs[i].at
		o.lag = time.Since(due)
		n := lg.inflight.Add(1)
		if n > maxInflight {
			lg.inflight.Add(-1)
			o.err = errGeneratorFull
			continue
		}
		for m := lg.inflightMax.Load(); n > m && !lg.inflightMax.CompareAndSwap(m, n); m = lg.inflightMax.Load() {
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer lg.inflight.Add(-1)
			sent := time.Now()
			lg.do(ctx, &reqs[i], o)
			done := time.Now()
			o.sendLat = done.Sub(sent)
			o.latency = done.Sub(due)
		}()
	}
}

// closedLoop keeps k requests in flight for dur: each of k workers sends
// its next request, drawn with its own rng, as soon as the previous one
// is answered. It returns the timing of every answer, at its completion
// offset, and, for every keepEvery-th request of each worker, the
// request and its answer. Only those keep their answer, so that the
// loop's memory hardly grows with the server's throughput.
func (lg *loadgen) closedLoop(ctx context.Context, k int, dur time.Duration,
	rngFor func(worker int) *rand.Rand, mk func(*rand.Rand) request) (all []outcome, kept []request, keptOuts []outcome) {
	const keepEvery = 256
	alls := make([][]outcome, k)
	reqs := make([][]request, k)
	outs := make([][]outcome, k)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rngFor(w)
			for n := 0; time.Since(start) < dur; n++ {
				r := mk(rng)
				var o outcome
				sent := time.Now()
				lg.do(ctx, &r, &o)
				o.sendLat = time.Since(sent)
				o.latency = o.sendLat
				o.at = time.Since(start)
				if n%keepEvery == 0 {
					reqs[w] = append(reqs[w], r)
					outs[w] = append(outs[w], o)
				}
				o.resp = nil
				alls[w] = append(alls[w], o)
			}
		}()
	}
	wg.Wait()
	return slices.Concat(alls...), slices.Concat(reqs...), slices.Concat(outs...)
}

func (lg *loadgen) do(ctx context.Context, r *request, o *outcome) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := lg.client.Do(req)
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		o.err = err
		return
	}
	if o.status == http.StatusOK {
		o.resp = new(response)
		if err := json.Unmarshal(body, o.resp); err != nil {
			o.err = fmt.Errorf("decoding answer: %w", err)
		}
	}
}

// get fetches a path with GET and returns the body.
func (lg *loadgen) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lg.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := lg.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}
