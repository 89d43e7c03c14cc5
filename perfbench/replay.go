package main

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"csdb/internal/cluster"
	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/dispatch"
	"csdb/internal/obs"
	"csdb/internal/serve"
)

// The traced run replays a workload's bodies in-process, in the same order
// and from as many goroutines as the load run, through the public functions
// cspd's /solve handler (and cspr's router) call. The spans are the
// benchmark's own, recorded around each call; none are added inside the
// program.

// Span names, one per layer boundary the replay crosses.
const (
	spanRequest     = "request"
	spanRouterParse = "cluster.parse_hash"
	spanRing        = "cluster.ring"
	spanParse       = "cspio.parse"
	spanHash        = "cspio.hash"
	spanFlight      = "serve.flight"
	spanCache       = "serve.cache"
	spanAdmit       = "serve.admit"
	spanClassify    = "dispatch.classify"
	spanPortfolio   = "csp.portfolio"
	spanRoutePrefix = "route.solve."
)

// span is one recorded interval. Spans of one request share req; parent
// names the enclosing span ("" for the request root).
type span struct {
	req          int
	name, parent string
	start, end   int64
}

// node is the serving state of one cspd, configured as the daemon builds it
// with default flags.
type node struct {
	cache    *serve.Cache
	analyzer *dispatch.Analyzer
	admit    *serve.Admission
	flights  serve.Group
}

func newNode() *node {
	return &node{
		cache:    serve.NewCache(256),
		analyzer: dispatch.NewAnalyzer(0, 256),
		admit:    serve.NewAdmission(runtime.GOMAXPROCS(0), 64),
	}
}

// replayResult is what a replay pass yields.
type replayResult struct {
	spans    []span
	requests int
	bytes    int64
	classes  map[string]int // route -> requests that ran it
	replies  []sample       // found/verdict per request, for the gate
}

type replayer struct {
	nodes []*node
	ring  *cluster.Ring // nil unless routed
	epoch time.Time
}

func newReplayer(routed bool) *replayer {
	r := &replayer{epoch: time.Now()}
	if routed {
		urls := []string{"http://replica-0", "http://replica-1"}
		r.ring = cluster.NewRing(urls, 64)
		r.nodes = []*node{newNode(), newNode()}
	} else {
		r.nodes = []*node{newNode()}
	}
	return r
}

// tracer collects one goroutine's spans.
type tracer struct {
	epoch time.Time
	req   int
	spans []span
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// rec records a span from start to now and returns now.
func (t *tracer) rec(name, parent string, start int64) int64 {
	end := t.now()
	t.add(name, parent, start, end)
	return end
}

func (t *tracer) add(name, parent string, start, end int64) {
	t.spans = append(t.spans, span{req: t.req, name: name, parent: parent, start: start, end: end})
}

// flightKey mirrors cspd's: the cache key plus the effective timeout.
type flightKey struct {
	serve.CacheKey
	timeout time.Duration
}

// one replays a single request. It returns the reply the handler would
// encode and the route that produced it.
func (r *replayer) one(t *tracer, body []byte) (reply, string, error) {
	root := t.now()
	defer t.rec(spanRequest, "", root)
	nd := r.nodes[0]
	if r.ring != nil {
		s := t.now()
		inst, err := cspio.Parse(bytes.NewReader(body))
		if err != nil {
			return reply{}, "", err
		}
		h := cspio.CanonicalHash(inst)
		s = t.rec(spanRouterParse, spanRequest, s)
		nd = r.nodes[r.ring.Primary(h)]
		t.rec(spanRing, spanRequest, s)
	}
	s := t.now()
	inst, err := cspio.Parse(bytes.NewReader(body))
	if err != nil {
		return reply{}, "", err
	}
	s = t.rec(spanParse, spanRequest, s)
	key := serve.CacheKey{Hash: cspio.CanonicalHash(inst), Strategy: "auto"}
	s = t.rec(spanHash, spanRequest, s)

	type result struct {
		rep   reply
		route string
		err   error
	}
	v, _ := nd.flights.Do(flightKey{key, 30 * time.Second}, func() any {
		c := t.now()
		cached, ok := nd.cache.Get(key)
		t.rec(spanCache, spanFlight, c)
		if ok {
			return cached.(result)
		}
		a := t.now()
		release, err := nd.admit.Acquire(context.Background())
		t.rec(spanAdmit, spanFlight, a)
		if err != nil {
			return result{err: err}
		}
		defer release()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rep, route := r.solve(ctx, t, nd, inst)
		c = t.now()
		if !rep.Aborted {
			nd.cache.Add(key, result{rep: rep, route: route})
		}
		t.rec(spanCache, spanFlight, c)
		return result{rep: rep, route: route}
	})
	t.rec(spanFlight, spanRequest, s)
	res := v.(result)
	return res.rep, res.route, res.err
}

// solve runs the daemon's dispatcher. Its span is split at the
// classification time it reports: the rest is the routed solver's, or the
// portfolio's when it fell back.
func (r *replayer) solve(ctx context.Context, t *tracer, nd *node, inst *csp.Instance) (reply, string) {
	s := t.now()
	out := nd.analyzer.Solve(ctx, inst)
	end := t.now()
	c := s + out.ClassifyTime.Nanoseconds()
	t.add(spanClassify, spanFlight, s, c)
	route := out.Route.String()
	if out.Fallback {
		t.add(spanPortfolio, spanFlight, c, end)
	} else {
		t.add(spanRoutePrefix+route, spanFlight, c, end)
	}
	return reply{Found: out.Found, Aborted: out.Aborted, Solution: out.Solution, Route: route}, route
}

// replay runs order through the replayer from `clients` goroutines until the
// order ends or the window closes. Spans are recorded only when traced.
func (r *replayer) replay(insts []*instance, order []int, clients int, window time.Duration, traced bool) replayResult {
	var next atomic.Int64
	deadline := time.Now().Add(window)
	per := make([]*tracer, clients)
	replies := make([][]sample, clients)
	routes := make([]map[string]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		per[c] = &tracer{epoch: r.epoch}
		routes[c] = map[string]int{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := per[c]
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				t.req = i
				rep, route, err := r.one(t, insts[order[i]].body)
				s := sample{inst: order[i], status: 200, err: err}
				if err == nil {
					s.body, _ = json.Marshal(rep)
				}
				replies[c] = append(replies[c], s)
				routes[c][route]++
				if !traced {
					t.spans = t.spans[:0]
				}
			}
		}(c)
	}
	wg.Wait()
	out := replayResult{classes: map[string]int{}}
	for c := 0; c < clients; c++ {
		out.spans = append(out.spans, per[c].spans...)
		out.replies = append(out.replies, replies[c]...)
		for k, v := range routes[c] {
			out.classes[k] += v
		}
	}
	out.requests = len(out.replies)
	for _, s := range out.replies {
		out.bytes += int64(len(insts[s.inst].body))
	}
	return out
}

// layerTimes sums self time (span minus its children) per span name, and
// returns the per-request root durations.
func layerTimes(spans []span) (self map[string]float64, roots []float64) {
	type parentKey struct {
		req  int
		name string
	}
	self = map[string]float64{}
	children := map[parentKey]float64{}
	for _, s := range spans {
		if s.parent != "" {
			children[parentKey{s.req, s.parent}] += float64(s.end - s.start)
		}
	}
	for _, s := range spans {
		d := float64(s.end - s.start)
		if s.name == spanRequest {
			roots = append(roots, d/1e6)
		}
		self[s.name] += d - children[parentKey{s.req, s.name}]
	}
	return self, roots
}

// allocCost measures, on one goroutine, the heap allocations of parsing
// and hashing each body in sample, from the runtime's cumulative counters.
func allocCost(bodies [][]byte) (parseObjs, parseBytes, hashObjs float64) {
	ms := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	read := func() (uint64, uint64) {
		metrics.Read(ms)
		return ms[0].Value.Uint64(), ms[1].Value.Uint64()
	}
	for _, b := range bodies {
		o0, b0 := read()
		inst, err := cspio.Parse(bytes.NewReader(b))
		o1, b1 := read()
		if err != nil {
			continue
		}
		_ = cspio.CanonicalHash(inst)
		o2, _ := read()
		parseObjs += float64(o1 - o0)
		parseBytes += float64(b1 - b0)
		hashObjs += float64(o2 - o1)
	}
	n := float64(max(1, len(bodies)))
	return parseObjs / n, parseBytes / n, hashObjs / n
}

// enableDaemonObs switches telemetry on as cspd does for its lifetime, so
// the replayed calls pay the same recording costs.
func enableDaemonObs() {
	obs.SetEnabled(true)
	obs.SetTracing(true)
}
