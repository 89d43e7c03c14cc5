// Command perfbench is the repository benchmark: a seeded, closed-loop load
// process that drives cspd (alone, or two replicas behind cspr) as
// deployed, checks every answer, and reports end-to-end metrics; with
// -trace 1 it reports per-layer metrics from an in-process traced replay
// plus the daemons' own counters.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -bin DIR -workload NAME -seed N -seconds S -trace 0|1
//	perfbench -bin DIR -selftest
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The process exits non-zero when any request failed or any answer was
// wrong.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// -trace 0 on every workload.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"server_cpu_ms_per_req", "ms"},
	{"server_peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var lanes = []struct{ metric, label string }{
	{"mac-mrv", "mac_mrv"}, {"fc-lex", "fc_lex"}, {"cbj", "cbj"}, {"learn", "learn"}, {"join", "join"},
}

var classes = []string{"tree", "schaefer", "acyclic", "width", "hard"}

// perLayer are the metrics of single layers, reported with -trace 1 on
// every workload. README.md maps each to the end-to-end metric and
// workload it should move.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"cspd.residual_ms", "ms"},
		{"cspd.cpu_ms_per_req", "ms"},
		{"cspd.alloc_kb_per_req", "KB"},
		{"cspd.gc_per_1k_req", "count"},
		{"cspio.parse_ms_per_req", "ms"},
		{"cspio.parse_mb_per_s", "MB/s"},
		{"cspio.parse_allocs_per_req", "count"},
		{"cspio.parse_kb_per_req", "KB"},
		{"cspio.hash_ms_per_req", "ms"},
		{"cspio.hash_allocs_per_req", "count"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.follower_frac", "ratio"},
		{"serve.cache_evictions_per_req", "count"},
		{"serve.cache_ms_per_req", "ms"},
		{"serve.admit_wait_ms_per_req", "ms"},
		{"serve.shed_frac", "ratio"},
		{"dispatch.classify_ms_per_req", "ms"},
	}
	for _, c := range classes {
		m = append(m, metricDef{"dispatch.class_share." + c, "ratio"})
	}
	m = append(m, metricDef{"dispatch.reroute_count", "count"})
	for _, c := range classes[:4] {
		m = append(m, metricDef{"route.solve_ms_per_req." + c, "ms"})
	}
	m = append(m,
		metricDef{"hypergraph.rows_reduced_ratio", "ratio"},
		metricDef{"csp.portfolio_ms_per_req", "ms"},
		metricDef{"csp.nodes_per_ms", "1/ms"},
		metricDef{"csp.nodes_per_req", "count"},
		metricDef{"csp.backtracks_per_req", "count"},
		metricDef{"csp.restarts_per_req", "count"},
		metricDef{"csp.nogoods_per_req", "count"},
	)
	for _, l := range lanes {
		m = append(m, metricDef{"csp.lane_win_share." + l.metric, "ratio"})
	}
	return append(m,
		metricDef{"cspr.cpu_ms_per_req", "ms"},
		metricDef{"cluster.parse_hash_ms_per_req", "ms"},
		metricDef{"cluster.ring_us_per_req", "us"},
		metricDef{"cluster.upstream_ms_per_req", "ms"},
		metricDef{"cluster.primary_ratio", "ratio"},
	)
}()

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string
	// plant corrupts one checked reply, to prove the gate catches it
	// (self-test only): "witness" or "verdict".
	plant string
}

// report is one run's result.
type report struct {
	attempted, failed int
	wrong             int // failures that are wrong answers, not errors
	metrics           []metricDef
	values            map[string]*float64 // nil value: a source was missing or the value not finite
	lines             []string            // human-readable detail, printed first
	failures          []string
}

// set records a metric. A value that is not finite is recorded as missing,
// so the result line can always be encoded.
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.values[name] = nil
		return
	}
	r.values[name] = &v
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

func (r *report) result() result {
	out := result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = metricValue{Value: r.values[m.name], Unit: m.unit}
	}
	return out
}

func main() {
	var cfg config
	var traceFlag int
	var selftest bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding the cspd and cspr binaries")
	flag.BoolVar(&selftest, "selftest", false, "run every workload briefly and test the benchmark itself")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.binDir == "" || (!selftest && cfg.workload == "") || cfg.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	for _, b := range []string{"cspd", "cspr"} {
		if _, err := os.Stat(filepath.Join(cfg.binDir, b)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	// A hard stop well inside the three-minute budget of one run: whatever
	// is wedged, the daemons are stopped and the run fails.
	limit := 170 * time.Second
	if selftest {
		limit = 10 * time.Minute
	}
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; stopping\n", limit)
		stopAll()
		os.Exit(1)
	})
	defer watchdog.Stop()

	var code int
	if selftest {
		code = runSelftest(ctx, cfg)
	} else {
		code = runOnce(ctx, cfg)
	}
	stopAll()
	os.Exit(code)
}

// runOnce runs one workload and prints its report.
func runOnce(ctx context.Context, cfg config) int {
	rep, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	fmt.Printf("# env workload=%s seed=%d seconds=%d trace=%t go=%s nproc=%d gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	b, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if rep.failed > 0 {
		return 1
	}
	for _, m := range rep.metrics {
		if rep.values[m.name] == nil {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s: a source counter is missing or the value is not finite\n", m.name)
			return 1
		}
	}
	return 0
}

// clientCount is the closed loop's concurrency: two callers, never more
// than the machine has CPUs.
func clientCount() int { return max(1, min(2, runtime.NumCPU())) }

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
