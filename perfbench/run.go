package main

import (
	"context"
	"net/http"
	"sort"
	"time"
)

// round is one deployment's timed window plus the server-side readings
// around it.
type round struct {
	load   loadResult
	setup  float64 // seconds
	cpu    float64 // seconds, cspd processes
	cprCPU float64 // seconds, cspr
	rssMB  float64
	// hostTicks is the machine's CPU ticks during the window; stealTicks
	// those the hypervisor stole, and foreignTicks those spent busy
	// outside the servers and this process.
	hostTicks, stealTicks, foreignTicks int64
	nodes                               *delta
	router                              *delta
	// readings are taken every sliceEvery through the window.
	readings []cpuReading
}

// measured is every round of one run.
type measured struct {
	rounds []round
	warm   []sample
	// discarded holds the timed replies of rounds measured again for
	// steal; they are checked but not timed.
	discarded []sample
	retries   int
	// setups is the set-up time of every deployment of the run.
	setups  []float64
	routed  bool
	batch   bool
	clients int
}

// samples returns every timed request of every round.
func (m *measured) samples() []sample {
	var out []sample
	for _, r := range m.rounds {
		out = append(out, r.load.samples...)
	}
	return out
}

// noiseLimit is the share of the host's CPU time a stretch of a window may
// lose to steal or to other processes and still count as quiet. On a
// shared 2-core VM, steal swings from under 1% to over 30% between minutes,
// and throughput falls faster than steal rises (about 10% at 5% steal,
// half at 30%); other processes' CPU load moves the figures too. A quiet
// second loses under 2%.
const noiseLimit = 0.05

// retryShare is the time a batch run may spend measuring noisy rounds
// again, as a share of --seconds: one round or two, so that a run under
// noise stays short.
const retryShare = 0.4

// setupProbes is how many extra deployments a run of a workload without a
// warm-up pass starts and stops only to time its set-up: launch to a
// healthy daemon takes about 10 ms there, and a median over the rounds
// alone moves with a single slow start.
const setupProbes = 16

// noise is the share of the host's CPU time the window lost to steal or to
// other processes.
func (r round) noise() float64 {
	return float64(r.stealTicks+r.foreignTicks) / float64(max(1, r.hostTicks))
}

// measure runs n rounds: every round is a fresh deployment, warmed, then
// timed, so process-to-process variation (GC pacing, peak RSS, start-up)
// is sampled n times per run. A timed round continues the send order where
// the previous one stopped, and its noisy stretches are left out later
// (quietSlices). A batch round sends its share of the batch; one whose
// window lost more than noiseLimit of the host to steal or to other
// processes is measured again on a fresh deployment, at most twice and
// within retryShare of the run, and the attempt with the least noise is
// kept. Every attempt's replies are still checked.
func measure(ctx context.Context, cfg config, w *workload, n int, window time.Duration) (*measured, error) {
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	m := &measured{routed: w.routed, batch: w.batch, clients: clientCount()}
	budget := time.Duration(retryShare * float64(cfg.seconds) * float64(time.Second))
	var retried time.Duration
	if w.hot == nil {
		for i := 0; i < setupProbes; i++ {
			t0 := time.Now()
			d, err := deploy(ctx, cfg.binDir, w.routed, hc)
			if err != nil {
				return nil, err
			}
			m.setups = append(m.setups, time.Since(t0).Seconds())
			d.stop()
		}
	}
	offset := 0
	for i := 0; i < n; i++ {
		order, win := w.roundOrder(i, n, offset, window)
		var best round
		for attempt := 0; ; attempt++ {
			t0 := time.Now()
			r, warm, err := measureRound(ctx, cfg, w, hc, m.clients, offset, order, win)
			if err != nil {
				return nil, err
			}
			m.warm = append(m.warm, warm...)
			m.setups = append(m.setups, r.setup)
			if attempt == 0 || r.noise() < best.noise() {
				if attempt > 0 {
					m.discarded = append(m.discarded, best.load.samples...)
				}
				best = r
			} else {
				m.discarded = append(m.discarded, r.load.samples...)
			}
			took := time.Since(t0)
			if !w.batch || best.noise() <= noiseLimit || attempt == 2 || retried+took > budget {
				break
			}
			retried += took
			m.retries++
		}
		m.rounds = append(m.rounds, best)
		offset += len(best.load.samples)
	}
	return m, nil
}

// measureRound deploys the workload's servers, warms them, and times one
// window, stopping the servers before it returns.
func measureRound(ctx context.Context, cfg config, w *workload, hc *http.Client, clients, offset int, order []int, window time.Duration) (round, []sample, error) {
	var r round
	t0 := time.Now()
	d, err := deploy(ctx, cfg.binDir, w.routed, hc)
	if err != nil {
		return r, nil, err
	}
	defer d.stop()
	r.setup = time.Since(t0).Seconds()
	warm := runClosedLoop(ctx, d.front.url, w.insts, w.warm(offset), clients, 0).samples
	if w.hot != nil {
		r.setup = time.Since(t0).Seconds()
	}

	var routers []*server
	if w.routed {
		routers = []*server{d.front}
	}
	// read takes a scrape of every server and the CPU time of the nodes
	// and of the router.
	read := func() (nodes, router []*scrape, cpu, cprCPU float64, err error) {
		for _, s := range d.nodes {
			sc, err := takeScrape(hc, s.url)
			if err != nil {
				return nil, nil, 0, 0, err
			}
			nodes = append(nodes, sc)
			c, err := s.cpuSeconds()
			if err != nil {
				return nil, nil, 0, 0, err
			}
			cpu += c
		}
		for _, s := range routers {
			sc, err := takeScrape(hc, s.url)
			if err != nil {
				return nil, nil, 0, 0, err
			}
			router = append(router, sc)
			c, err := s.cpuSeconds()
			if err != nil {
				return nil, nil, 0, 0, err
			}
			cprCPU += c
		}
		return nodes, router, cpu, cprCPU, nil
	}
	nodes0, router0, cpu0, rcpu0, err := read()
	if err != nil {
		return r, nil, err
	}
	stopSampling := sampleCPU(d, sliceEvery)
	r.load = runClosedLoop(ctx, d.front.url, w.insts, order, clients, window)
	r.readings = stopSampling()
	if ctx.Err() != nil {
		return r, nil, ctx.Err()
	}
	r.hostTicks, r.stealTicks, r.foreignTicks = noiseTicks(r.readings[0], r.readings[len(r.readings)-1])
	nodes1, router1, cpu1, rcpu1, err := read()
	if err != nil {
		return r, nil, err
	}
	r.cpu, r.cprCPU = cpu1-cpu0, rcpu1-rcpu0
	r.nodes, r.router = newDelta(nodes0, nodes1), newDelta(router0, router1)
	for _, s := range d.all {
		mb, err := s.peakRSSMB()
		if err != nil {
			return r, nil, err
		}
		r.rssMB += mb
	}
	return r, warm, nil
}

// gate checks every stored reply (warm-up, discarded and timed) after the
// servers are stopped, filling the report's counts. It returns which timed
// replies of each round were verified, and the sorted latencies of all of
// them; failures show in failed/attempted.
func gate(rep *report, chk *checker, m *measured, plant string) (verified [][]bool, lat []float64) {
	for _, s := range append(m.warm, m.discarded...) {
		rep.attempted++
		if !chk.check(s) {
			rep.failed++
		}
	}
	for _, r := range m.rounds {
		ok := make([]bool, len(r.load.samples))
		for i, s := range r.load.samples {
			if plant != "" {
				var planted bool
				if s, planted = plantFault(s, chk.insts[s.inst], plant); planted {
					plant = ""
				}
			}
			rep.attempted++
			if ok[i] = chk.check(s); ok[i] {
				lat = append(lat, float64(s.latency)/1e6)
			} else {
				rep.failed++
			}
		}
		verified = append(verified, ok)
	}
	sort.Float64s(lat)
	return verified, lat
}

// sliceEvery is the length of the slices a timed window is cut into to
// tell its quiet stretches from its noisy ones.
const sliceEvery = time.Second

// stretch is one slice of a round's timed window: [from, to) from the start
// of the round's closed loop, and the share of the host's CPU time it lost
// to steal or to other processes.
type stretch struct {
	round    int
	from, to time.Duration
	noise    float64
}

// slices cuts every round's window at its CPU readings. A last slice
// shorter than half of sliceEvery is merged into the one before it.
func slices(rounds []round) []stretch {
	var out []stretch
	for ri, r := range rounds {
		rd := r.readings
		if n := len(rd); n > 2 && rd[n-1].at.Sub(rd[n-2].at) < sliceEvery/2 {
			rd = append(rd[:n-2:n-2], rd[n-1])
		}
		for i := 0; i+1 < len(rd); i++ {
			total, steal, foreign := noiseTicks(rd[i], rd[i+1])
			out = append(out, stretch{
				round: ri,
				from:  rd[i].at.Sub(r.load.start),
				to:    rd[i+1].at.Sub(r.load.start),
				noise: float64(steal+foreign) / float64(max(1, total)),
			})
		}
	}
	return out
}

// quietSlices keeps the slices of a run whose noise is at most noiseLimit,
// or its quietest third if fewer qualify. Steal on a shared host comes and
// goes within seconds (one routed-hits run saw 1%, 12% and 24% in its three
// rounds), so most runs have quiet seconds to measure; a run that has none
// is measured on its least noisy ones. Over ten runs of routed-hits under
// 2-16% median steal, this rule gave throughput and p50 spreads (IQR over
// median) of 0.06 and 0.09, against 0.14 and 0.20 over every slice and
// 0.10 and 0.11 over the quietest third alone. It returns the sorted
// latencies of the verified replies that arrived in kept slices, and the
// kept slices' length in seconds.
func quietSlices(rounds []round, verified [][]bool) (lat []float64, secs float64, kept, all int) {
	ws := slices(rounds)
	noise := make([]float64, len(ws))
	for i, w := range ws {
		noise[i] = w.noise
	}
	sort.Float64s(noise)
	limit := max(noiseLimit, quantile(noise, 1.0/3))
	for _, w := range ws {
		if w.noise > limit {
			continue
		}
		kept++
		secs += (w.to - w.from).Seconds()
		for i, s := range rounds[w.round].load.samples {
			if verified[w.round][i] && s.end >= w.from && s.end < w.to {
				lat = append(lat, float64(s.latency)/1e6)
			}
		}
	}
	sort.Float64s(lat)
	return lat, secs, kept, len(ws)
}

func runWorkload(ctx context.Context, cfg config) (*report, error) {
	w, err := buildWorkload(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	rep := &report{values: map[string]*float64{}}
	chk := newChecker(w.insts)
	if !cfg.trace {
		window := time.Duration(cfg.seconds) * time.Second / time.Duration(w.rounds)
		m, err := measure(ctx, cfg, w, w.rounds, window)
		if err != nil {
			return nil, err
		}
		endToEndMetrics(rep, chk, m, cfg.plant)
	} else {
		window := time.Duration(cfg.seconds) * time.Second / 2
		if w.batch {
			// Half the batch fills about half the time, as the window
			// does for the timed workloads.
			w.order = w.order[:len(w.order)/2]
		}
		m, err := measure(ctx, cfg, w, 1, window)
		if err != nil {
			return nil, err
		}
		if err := perLayerMetrics(rep, chk, m, w, cfg, window); err != nil {
			return nil, err
		}
	}
	rep.wrong = chk.wrong
	rep.failures = chk.failures
	return rep, nil
}

func endToEndMetrics(rep *report, chk *checker, m *measured, plant string) {
	rep.metrics = endToEnd
	verified, lat := gate(rep, chk, m, plant)
	var okAll, completed int
	var makespan, cpu float64
	var hostTicks, stealTicks, foreignTicks int64
	var tput, rss, setup, noise []float64
	for i, r := range m.rounds {
		hostTicks += r.hostTicks
		stealTicks += r.stealTicks
		foreignTicks += r.foreignTicks
		ok := 0
		for j, s := range r.load.samples {
			if s.err == nil {
				completed++
			}
			if verified[i][j] {
				ok++
			}
		}
		okAll += ok
		makespan += r.load.makespan.Seconds()
		cpu += r.cpu + r.cprCPU
		tput = append(tput, float64(ok)/r.load.makespan.Seconds())
		rss = append(rss, r.rssMB)
		setup = append(setup, r.setup)
		noise = append(noise, r.noise())
	}
	if m.batch {
		// Every instance of the batch counts, so every commit is timed on
		// the same work.
		rep.set("throughput_rps", float64(okAll)/makespan)
		rep.note("# throughput and latency over the whole batch")
	} else {
		allLat := lat
		var secs float64
		var kept, all int
		lat, secs, kept, all = quietSlices(m.rounds, verified)
		rep.set("throughput_rps", float64(len(lat))/secs)
		rep.note("# throughput and latency over %d of %d one-second slices (%.1f s, %d of %d verified replies); all slices: throughput_rps %g latency_p50_ms %g latency_p90_ms %g",
			kept, all, secs, len(lat), okAll, float64(okAll)/makespan, quantile(allLat, 0.5), quantile(allLat, 0.9))
	}
	rep.set("latency_p50_ms", quantile(lat, 0.5))
	rep.set("latency_p90_ms", quantile(lat, 0.9))
	rep.set("server_cpu_ms_per_req", cpu*1000/float64(max(1, completed)))
	rep.set("server_peak_rss_mb", median(rss))
	rep.set("setup_s", median(m.setups))
	above := 0
	p90 := quantile(lat, 0.9)
	for _, l := range lat {
		if l > p90 {
			above++
		}
	}
	rep.note("# setup_s is the median of %d deployments", len(m.setups))
	rep.note("# %d rounds, %d timed requests, %d clients; %d samples above p90", len(m.rounds), completed, m.clients, above)
	if above < 10 {
		rep.note("# warning: fewer than 10 samples above p90")
	}
	rep.note("# per round: throughput_rps %v, server_peak_rss_mb %v, setup_s %v, noise %v", tput, rss, setup, noise)
	rep.note("# host CPU lost during the rounds' windows: %.1f%% stolen by the hypervisor, %.1f%% to other processes; %d batch rounds measured again for noise",
		100*float64(stealTicks)/float64(max(1, hostTicks)), 100*float64(foreignTicks)/float64(max(1, hostTicks)), m.retries)
	rep.note("failed_frac %.6f frac (%d failed of %d attempted)", float64(rep.failed)/float64(max(1, rep.attempted)), rep.failed, rep.attempted)
	noteMetrics(rep, endToEnd)
}

// noteMetrics prints each metric as "name value unit".
func noteMetrics(rep *report, defs []metricDef) {
	for _, d := range defs {
		if v := rep.values[d.name]; v != nil {
			rep.note("%s %g %s", d.name, *v, d.unit)
		} else {
			rep.note("%s missing %s", d.name, d.unit)
		}
	}
}

// perLayerMetrics computes the -trace 1 metrics: scraped deltas from the
// untraced window just measured, and spans from an in-process replay of the
// same bodies in the same order.
func perLayerMetrics(rep *report, chk *checker, m *measured, w *workload, cfg config, window time.Duration) error {
	rep.metrics = perLayer
	_, lat := gate(rep, chk, m, "")
	p50 := quantile(lat, 0.5)
	timed := m.samples()
	nd := float64(max(1, len(timed)))
	r := m.rounds[0]

	// The replay: warm exactly as the daemon was warmed, untraced, then
	// replay the requests the timed window sent.
	enableDaemonObs()
	rp := newReplayer(w.routed)
	warm := rp.replay(w.insts, w.warm(0), m.clients, time.Minute, false)
	for _, s := range warm.replies {
		rep.attempted++
		if !chk.check(s) {
			rep.failed++
		}
	}
	n := len(timed)
	res := rp.replay(w.insts, w.order[:n], m.clients, window, true)
	for _, s := range res.replies {
		rep.attempted++
		if !chk.check(s) {
			rep.failed++
		}
	}
	self, roots := layerTimes(res.spans)
	nr := float64(max(1, res.requests))
	msPer := func(name string) float64 { return self[name] / 1e6 / nr }
	sample := make([][]byte, 0, 64)
	for _, i := range w.order[:min(64, n)] {
		sample = append(sample, w.insts[i].body)
	}
	parseObjs, parseBytes, hashObjs := allocCost(sample)

	// scraped sets a metric read from daemon counters: if it read any
	// counter the daemon does not export, the metric is reported as
	// missing (null), never as 0.
	scraped := func(name string, d *delta, f func() float64) {
		d.miss = false
		v := f()
		if d.miss {
			rep.values[name] = nil
			return
		}
		rep.set(name, v)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nodes, router := r.nodes, r.router
	requests := func() float64 { return nodes.counter("cspd.solve.requests") }

	rootP50 := median(roots)
	rep.set("cspd.residual_ms", p50-rootP50)
	rep.set("cspd.cpu_ms_per_req", r.cpu*1000/nd)
	scraped("cspd.alloc_kb_per_req", nodes, func() float64 { return nodes.counter("runtime.total_alloc_bytes") / 1024 / nd })
	scraped("cspd.gc_per_1k_req", nodes, func() float64 { return nodes.counter("runtime.num_gc") * 1000 / nd })
	rep.set("cspio.parse_ms_per_req", msPer(spanParse))
	rep.set("cspio.parse_mb_per_s", ratio(float64(res.bytes)/1e6, self[spanParse]/1e9))
	rep.set("cspio.parse_allocs_per_req", parseObjs)
	rep.set("cspio.parse_kb_per_req", parseBytes/1024)
	rep.set("cspio.hash_ms_per_req", msPer(spanHash))
	rep.set("cspio.hash_allocs_per_req", hashObjs)

	scraped("serve.cache_hit_ratio", nodes, func() float64 {
		hit := nodes.series("cspd.cache.outcome", "outcome=hit")
		return ratio(hit, hit+nodes.series("cspd.cache.outcome", "outcome=miss"))
	})
	scraped("serve.follower_frac", nodes, func() float64 { return ratio(nodes.counter("cspd.solve.collapsed"), requests()) })
	scraped("serve.cache_evictions_per_req", nodes, func() float64 {
		return ratio(nodes.series("cspd.cache.outcome", "outcome=evict"), requests())
	})
	rep.set("serve.cache_ms_per_req", msPer(spanCache))
	scraped("serve.admit_wait_ms_per_req", nodes, func() float64 {
		_, fast := nodes.histSeries("cspd.admit.wait_ns", "outcome=fast")
		_, queued := nodes.histSeries("cspd.admit.wait_ns", "outcome=queued")
		return ratio((fast+queued)/1e6, requests())
	})
	scraped("serve.shed_frac", nodes, func() float64 { return ratio(nodes.counter("cspd.admit.shed"), requests()) })

	rep.set("dispatch.classify_ms_per_req", msPer(spanClassify))
	for _, c := range classes {
		scraped("dispatch.class_share."+c, nodes, func() float64 {
			return ratio(nodes.series("dispatch.class", "class="+c), nodes.seriesSum("dispatch.class", "class", classes))
		})
	}
	scraped("dispatch.reroute_count", nodes, func() float64 { return nodes.seriesSum("dispatch.reroute.class", "class", classes) })
	for _, c := range classes[:4] {
		rep.set("route.solve_ms_per_req."+c, msPer(spanRoutePrefix+c))
	}
	scraped("hypergraph.rows_reduced_ratio", nodes, func() float64 {
		return ratio(nodes.counter("acyclic.rows_reduced"), nodes.counter("acyclic.rows_loaded"))
	})
	rep.set("csp.portfolio_ms_per_req", msPer(spanPortfolio))
	scraped("csp.nodes_per_ms", nodes, func() float64 {
		_, ns := nodes.histSeries("csp.solve.ns")
		return ratio(nodes.counter("csp.search.nodes"), ns/1e6)
	})
	scraped("csp.nodes_per_req", nodes, func() float64 { return nodes.counter("csp.search.nodes") / nd })
	scraped("csp.backtracks_per_req", nodes, func() float64 { return nodes.counter("csp.search.backtracks") / nd })
	scraped("csp.restarts_per_req", nodes, func() float64 { return nodes.counter("csp.search.restarts") / nd })
	scraped("csp.nogoods_per_req", nodes, func() float64 { return nodes.counter("csp.search.nogoods") / nd })
	laneLabels := make([]string, len(lanes))
	for i, l := range lanes {
		laneLabels[i] = l.label
	}
	for _, l := range lanes {
		scraped("csp.lane_win_share."+l.metric, nodes, func() float64 {
			return ratio(nodes.series("csp.portfolio.lane", "lane="+l.label, "outcome=win"),
				nodes.seriesSum("csp.portfolio.lane", "lane", laneLabels, "outcome=win"))
		})
	}

	rep.set("cspr.cpu_ms_per_req", r.cprCPU*1000/nd)
	rep.set("cluster.parse_hash_ms_per_req", msPer(spanRouterParse))
	rep.set("cluster.ring_us_per_req", self[spanRing]/1e3/nr)
	if m.routed {
		scraped("cluster.upstream_ms_per_req", router, func() float64 {
			var count, sum float64
			for _, replica := range []string{"0", "1"} {
				c, s := router.histSeries("cspr.replica.request_ns", "replica="+replica)
				count += c
				sum += s
			}
			return ratio(sum/1e6, count)
		})
		scraped("cluster.primary_ratio", router, func() float64 {
			outcomes := []string{"primary", "offload", "failover", "saturated", "error", "down", "reject"}
			return ratio(router.series("cspr.route.outcome", "outcome=primary"), router.seriesSum("cspr.route.outcome", "outcome", outcomes))
		})
	} else {
		// No router is deployed: the layer costs nothing on this workload.
		rep.set("cluster.upstream_ms_per_req", 0)
		rep.set("cluster.primary_ratio", 0)
	}

	layers := 0.0
	for name, t := range self {
		if name != spanRequest {
			layers += t
		}
	}
	rep.note("# untraced window: %d requests, latency_p50_ms %g", len(timed), p50)
	rep.note("# traced replay: %d requests, %d bytes; traced request p50 %g ms, mean %g ms = layer self-times %g ms (admit %g, flight %g) + request glue %g ms",
		res.requests, res.bytes, rootP50, mean(roots), layers/1e6/nr, msPer(spanAdmit), msPer(spanFlight), msPer(spanRequest))
	rep.note("# accounting: latency_p50_ms %g = traced p50 %g + cspd.residual_ms %g", p50, rootP50, p50-rootP50)
	rep.note("# replay routes: %v", res.classes)
	for _, missing := range [][]string{sortedKeys(nodes.missing), sortedKeys(router.missing)} {
		if len(missing) > 0 {
			rep.note("# missing counters: %v", missing)
		}
	}
	noteMetrics(rep, perLayer)
	return nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
