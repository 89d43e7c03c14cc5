package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// plantFault corrupts a SAT reply, so the self-test can prove the gate
// catches it: "witness" changes one value so a constraint is violated,
// "verdict" turns the SAT answer into an UNSAT claim. Other replies are
// returned unchanged with false.
func plantFault(s sample, in *instance, kind string) (sample, bool) {
	var r reply
	if s.err != nil || json.Unmarshal(s.body, &r) != nil || !r.Found {
		return s, false
	}
	switch kind {
	case "witness":
		bad, ok := violate(in, r.Solution)
		if !ok {
			return s, false
		}
		r.Solution = bad
	case "verdict":
		r.Found, r.Solution = false, nil
	default:
		return s, false
	}
	s.body, _ = json.Marshal(r)
	return s, true
}

// violate returns a copy of a solution with one value changed so that it is
// no longer a solution but every value stays inside the domain.
func violate(in *instance, sol []int) ([]int, bool) {
	bad := append([]int(nil), sol...)
	for v := range bad {
		orig := bad[v]
		for x := 0; x < in.dom; x++ {
			if x == orig {
				continue
			}
			bad[v] = x
			if !in.satisfiedBy(bad) {
				return bad, true
			}
		}
		bad[v] = orig
	}
	return nil, false
}

// benchmarkFile is the part of BENCHMARK.json the self-test cross-checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSelftest runs every workload briefly in both modes and asserts that
// each metric BENCHMARK.json names is printed with its unit and a value,
// that no request failed, and that a planted bad witness and a flipped
// verdict are each counted as a failure.
func runSelftest(ctx context.Context, cfg config) int {
	failed := 0
	check := func(ok bool, format string, args ...any) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			failed++
		}
		fmt.Printf("selftest %s %s\n", status, fmt.Sprintf(format, args...))
	}

	var bf benchmarkFile
	b, err := os.ReadFile("BENCHMARK.json")
	check(err == nil && json.Unmarshal(b, &bf) == nil, "BENCHMARK.json readable (%v)", err)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	check(len(bf.Workloads) == len(workloadNames), "BENCHMARK.json lists %d workloads, program has %d", len(bf.Workloads), len(workloadNames))

	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			c := cfg
			c.workload, c.trace, c.seconds = wl, trace, 2
			rep, err := runWorkload(ctx, c)
			if err != nil {
				check(false, "%s trace=%t: %v", wl, trace, err)
				continue
			}
			check(rep.failed == 0 && rep.attempted > 0, "%s trace=%t: %d of %d requests failed %v", wl, trace, rep.failed, rep.attempted, rep.failures)
			got := rep.result().Metrics
			for name, unit := range want[trace] {
				m, ok := got[name]
				check(ok && m.Unit == unit && m.Value != nil, "%s trace=%t: metric %s printed with unit %s", wl, trace, name, unit)
			}
			check(len(got) == len(want[trace]), "%s trace=%t: %d metrics printed, BENCHMARK.json names %d", wl, trace, len(got), len(want[trace]))
		}
	}

	for _, kind := range []string{"witness", "verdict"} {
		c := cfg
		c.workload, c.trace, c.seconds, c.plant = "hot-hits", false, 1, kind
		rep, err := runWorkload(ctx, c)
		if err != nil {
			check(false, "planted bad %s: %v", kind, err)
			continue
		}
		check(rep.failed == 1 && rep.wrong == 1,
			"planted bad %s counted as exactly one wrong answer (failed %d, wrong %d)", kind, rep.failed, rep.wrong)
	}
	if failed > 0 {
		fmt.Printf("selftest: %d checks failed\n", failed)
		return 1
	}
	fmt.Println("selftest: all checks passed")
	return 0
}
