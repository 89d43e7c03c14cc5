package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// Health tracks replica liveness and load for the router. A background
// sweep (Start) polls each replica's /healthz and /metrics?format=json on an
// interval; the proxy path feeds outcomes back synchronously (NoteFailure /
// NoteSuccess) so a crashed replica stops receiving traffic after its first
// failed proxy attempt instead of after the next sweep.
//
// Load is the replica's backlog as the node itself reports it:
// cspd.admit.queue_depth (callers waiting for a solve slot) plus
// cspd.solve.inflight (requests inside the handler). The router offloads
// away from a primary whose backlog crosses Config.ShedDepth — the
// before-the-429 shedding the replica's own admission gate would otherwise
// perform after the request had already crossed the network.
//
// Replicas start optimistically live with zero load until Start's first
// sweep, which completes before Start returns.
type Health struct {
	urls         []string
	client       *http.Client
	probeTimeout time.Duration

	down   []atomic.Bool
	load   []atomic.Int64
	sweeps atomic.Int64
}

// NewHealth returns a tracker for the given replica base URLs, probing
// through client.
func NewHealth(urls []string, client *http.Client) *Health {
	return &Health{
		urls:         urls,
		client:       client,
		probeTimeout: 2 * time.Second,
		down:         make([]atomic.Bool, len(urls)),
		load:         make([]atomic.Int64, len(urls)),
	}
}

// Start runs one sweep before it returns, so liveness and load are known
// from the first routed request on, then launches the background poll loop:
// one sweep per interval until ctx is cancelled.
func (h *Health) Start(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	h.PollOnce(ctx)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				h.PollOnce(ctx)
			}
		}
	}()
}

// PollOnce sweeps every replica once, updating liveness and load, and
// records the sweep's outcome tallies (health state counters are flushed
// once per sweep, at the call boundary).
func (h *Health) PollOnce(ctx context.Context) {
	liveN, downN := int64(0), int64(0)
	for i := range h.urls {
		if h.probe(ctx, i) {
			liveN++
		} else {
			downN++
		}
	}
	h.sweeps.Add(1)
	obsReplicaHealth.Add(liveN, "live")
	obsReplicaHealth.Add(downN, "down")
	obsReplicaLive.Set(liveN)
}

// probe checks one replica: /healthz decides liveness; a successful
// /metrics?format=json refreshes the load estimate (on failure the previous
// estimate is kept — stale beats zero, which would masquerade as idle).
func (h *Health) probe(ctx context.Context, i int) (live bool) {
	pctx, cancel := context.WithTimeout(ctx, h.probeTimeout)
	defer cancel()
	ok := h.get(pctx, h.urls[i]+"/healthz", nil)
	h.down[i].Store(!ok)
	if !ok {
		return false
	}
	var snap map[string]json.RawMessage
	if h.get(pctx, h.urls[i]+"/metrics?format=json", &snap) {
		h.load[i].Store(snapLoad(snap))
	}
	return true
}

// snapLoad extracts the backlog estimate from a cspd metrics snapshot.
func snapLoad(snap map[string]json.RawMessage) int64 {
	var total float64
	for _, key := range []string{"cspd.admit.queue_depth", "cspd.solve.inflight"} {
		var v float64
		if raw, ok := snap[key]; ok && json.Unmarshal(raw, &v) == nil {
			total += v
		}
	}
	return int64(total)
}

// get fetches url and, when out is non-nil, decodes the JSON body into it.
// Any transport error, non-200 status, or decode failure reports false.
func (h *Health) get(ctx context.Context, url string, out any) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if out == nil {
		return true
	}
	return json.NewDecoder(resp.Body).Decode(out) == nil
}

// Live reports whether replica i passed its last probe (or has not yet been
// contradicted by one).
func (h *Health) Live(i int) bool { return !h.down[i].Load() }

// Load returns replica i's last observed backlog.
func (h *Health) Load(i int) int64 { return h.load[i].Load() }

// Sweeps returns the number of completed poll sweeps (tests use it to wait
// for fresh state).
func (h *Health) Sweeps() int64 { return h.sweeps.Load() }

// NoteFailure marks replica i down immediately: a proxy attempt just failed
// to reach it, which is fresher evidence than the last sweep.
func (h *Health) NoteFailure(i int) { h.down[i].Store(true) }

// NoteSuccess marks replica i live immediately: it just served a request.
func (h *Health) NoteSuccess(i int) { h.down[i].Store(false) }

// LiveCount returns the number of currently-live replicas.
func (h *Health) LiveCount() int {
	n := 0
	for i := range h.down {
		if !h.down[i].Load() {
			n++
		}
	}
	return n
}

// LeastLoaded returns the live replica with the smallest observed backlog
// (lowest index wins ties), or -1 when every replica is down.
func (h *Health) LeastLoaded() int {
	best, bestLoad := -1, int64(0)
	for i := range h.urls {
		if h.down[i].Load() {
			continue
		}
		l := h.load[i].Load()
		if best == -1 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// String renders one replica's state for /replicas and logs.
func (h *Health) String() string {
	s := ""
	for i, u := range h.urls {
		if i > 0 {
			s += " "
		}
		state := "live"
		if h.down[i].Load() {
			state = "down"
		}
		s += fmt.Sprintf("%s=%s/%d", u, state, h.load[i].Load())
	}
	return s
}
