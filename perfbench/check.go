package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"csdb/internal/csp"
)

// reply is the part of cspd's /solve response the gate checks.
type reply struct {
	Found    bool   `json:"found"`
	Aborted  bool   `json:"aborted"`
	Solution []int  `json:"solution"`
	Route    string `json:"route"`
}

// checker is the correctness gate. SAT witnesses are checked with the
// benchmark's own loop over the generated tuples; every UNSAT verdict is
// checked against csp.SolveSeed, run once per instance, after timing.
type checker struct {
	insts  []*instance
	oracle map[int]bool // instance -> SolveSeed found a solution
	// wrong counts replies rejected for their content: a wrong verdict or
	// an invalid witness, as opposed to an error status or transport error.
	wrong int
	// failures holds the first few failure descriptions, for the report.
	failures []string
}

func newChecker(insts []*instance) *checker {
	return &checker{insts: insts, oracle: map[int]bool{}}
}

// check returns whether one sample is a verified-correct reply. A non-200
// status (429 sheds included), a transport error, an aborted solve, a wrong
// verdict or an invalid witness is a failure.
func (c *checker) check(s sample) bool {
	switch {
	case s.err != nil:
		return c.fail("instance %d: transport error: %v", s.inst, s.err)
	case s.status != http.StatusOK:
		return c.fail("instance %d: HTTP %d: %.120s", s.inst, s.status, s.body)
	}
	var r reply
	if err := json.Unmarshal(s.body, &r); err != nil {
		c.wrong++
		return c.fail("instance %d: undecodable reply: %v", s.inst, err)
	}
	return c.checkReply(s.inst, r)
}

func (c *checker) checkReply(i int, r reply) bool {
	in := c.insts[i]
	switch {
	case r.Aborted:
		return c.fail("instance %d (%s): solve aborted", i, in.family)
	case r.Found:
		if !in.satisfiedBy(r.Solution) {
			c.wrong++
			return c.fail("instance %d (%s): SAT witness violates the instance", i, in.family)
		}
		return true
	}
	found, ok := c.oracle[i]
	if !ok {
		res := csp.SolveSeed(in.toCSP(), csp.Options{})
		if res.Found && !in.satisfiedBy(res.Solution) {
			c.wrong++
			return c.fail("instance %d (%s): oracle returned an invalid witness", i, in.family)
		}
		found = res.Found
		c.oracle[i] = found
	}
	if found {
		c.wrong++
		return c.fail("instance %d (%s): UNSAT reply but SolveSeed finds a solution", i, in.family)
	}
	return true
}

func (c *checker) fail(format string, args ...any) bool {
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	return false
}
