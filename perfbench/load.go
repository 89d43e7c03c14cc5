package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// solvePath is what every client POSTs to: structural routing on, default
// timeout, exactly as cspd's callers use it.
const solvePath = "/solve?route=auto"

// sample is one request as the client saw it. The reply body is kept and
// checked only after timing ends.
type sample struct {
	inst    int
	status  int
	err     error
	body    []byte
	latency time.Duration
	end     time.Duration // reply time, from the start of the pass
}

// newClient returns an HTTP client holding one keep-alive connection.
func newClient() *http.Client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr}
}

// loadResult is one closed-loop pass.
type loadResult struct {
	samples  []sample
	start    time.Time
	makespan time.Duration // from the first send to the last reply
}

// runClosedLoop drives `clients` goroutines, each with its own keep-alive
// connection, through order: a client sends its next request only after
// its previous reply arrives. No request is sent after the deadline (zero
// means none); requests already sent complete and count.
func runClosedLoop(ctx context.Context, url string, insts []*instance, order []int, clients int, window time.Duration) loadResult {
	var next atomic.Int64
	per := make([][]sample, clients)
	start := time.Now()
	var deadline time.Time
	if window > 0 {
		deadline = start.Add(window)
	}
	lastEnd := make([]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for ctx.Err() == nil {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				s := send(ctx, hc, url, insts[order[i]].body)
				s.inst = order[i]
				s.end = time.Since(start)
				per[c] = append(per[c], s)
				lastEnd[c] = s.end
			}
		}(c)
	}
	wg.Wait()
	out := loadResult{start: start}
	for c, s := range per {
		out.samples = append(out.samples, s...)
		out.makespan = max(out.makespan, lastEnd[c])
	}
	return out
}

func send(ctx context.Context, hc *http.Client, url string, body []byte) sample {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+solvePath, bytes.NewReader(body))
	if err != nil {
		return sample{err: err, latency: time.Since(t0)}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return sample{err: err, latency: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return sample{status: resp.StatusCode, err: err, body: b, latency: time.Since(t0)}
}

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
