// Package cspio reads and writes CSP instances in the library's simple text
// format and reads DIMACS coloring graphs, for the command-line tools.
//
// Instance format (one directive per line; '#' starts a comment):
//
//	vars 4
//	dom 3
//	names x y z w            # optional variable labels
//	con 0 1 : 0 1 | 1 0      # scope ':' tuples separated by '|'
//	dom_of 2 : 0 2           # optional per-variable domain restriction
//
// DIMACS format: the classic "p edge N M" header with "e u v" lines
// (1-based vertices).
package cspio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"csdb/internal/csp"
	"csdb/internal/graph"
)

// Parse reads an instance in the text format.
func Parse(r io.Reader) (*csp.Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24) // grows from 4 KiB as long lines need
	var inst *csp.Instance
	vars, dom := -1, -1
	var names []string
	domains := map[int][]int{}
	var cons []csp.Constraint
	var row []int // one parse buffer for every tuple; Table.Add copies
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		head := line
		if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
			head = line[:i]
		}
		switch head {
		case "vars", "dom":
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, fmt.Errorf("cspio: line %d: %s needs one argument", lineNo, head)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 || (head == "dom" && v < 1) {
				return nil, fmt.Errorf("cspio: line %d: bad %s %q", lineNo, head, fields[1])
			}
			if head == "vars" {
				vars = v
			} else {
				dom = v
			}
		case "names":
			names = strings.Fields(line)[1:]
		case "con":
			rest := strings.TrimPrefix(line, "con")
			parts := strings.SplitN(rest, ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("cspio: line %d: con needs 'scope : tuples'", lineNo)
			}
			scope, err := parseInts(nil, parts[0])
			if err != nil {
				return nil, fmt.Errorf("cspio: line %d: %v", lineNo, err)
			}
			tab := csp.NewTable(len(scope))
			// Reserve one row per '|'-separated field, but no more than the
			// line can hold (a tuple takes at least 2·arity bytes), so a
			// line of empty fields cannot reserve more than its own size.
			tab.Grow(min(strings.Count(parts[1], "|")+1, (len(parts[1])+1)/(2*len(scope))))
			for _, tup := range strings.Split(parts[1], "|") {
				tup = strings.TrimSpace(tup)
				if tup == "" {
					continue
				}
				if row, err = parseInts(row[:0], tup); err != nil {
					return nil, fmt.Errorf("cspio: line %d: %v", lineNo, err)
				}
				if len(row) != len(scope) {
					return nil, fmt.Errorf("cspio: line %d: tuple arity %d for scope of %d", lineNo, len(row), len(scope))
				}
				tab.Add(row)
			}
			cons = append(cons, csp.Constraint{Scope: scope, Table: tab})
		case "dom_of":
			rest := strings.TrimPrefix(line, "dom_of")
			parts := strings.SplitN(rest, ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("cspio: line %d: dom_of needs 'var : values'", lineNo)
			}
			vs, err := parseInts(nil, parts[0])
			if err != nil || len(vs) != 1 {
				return nil, fmt.Errorf("cspio: line %d: dom_of needs one variable", lineNo)
			}
			vals, err := parseInts(nil, parts[1])
			if err != nil {
				return nil, fmt.Errorf("cspio: line %d: %v", lineNo, err)
			}
			domains[vs[0]] = vals
		default:
			return nil, fmt.Errorf("cspio: line %d: unknown directive %q", lineNo, head)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if vars < 0 || dom < 0 {
		return nil, fmt.Errorf("cspio: missing vars/dom directives")
	}
	inst = csp.NewInstance(vars, dom)
	if names != nil {
		if len(names) != vars {
			return nil, fmt.Errorf("cspio: %d names for %d variables", len(names), vars)
		}
		inst.Names = names
	}
	if len(domains) > 0 {
		inst.Domains = make([][]int, vars)
		for v, d := range domains {
			if v < 0 || v >= vars {
				return nil, fmt.Errorf("cspio: dom_of variable %d out of range", v)
			}
			inst.Domains[v] = d
		}
	}
	for _, c := range cons {
		if err := inst.AddConstraint(c.Scope, c.Table); err != nil {
			return nil, fmt.Errorf("cspio: %v", err)
		}
	}
	return inst, nil
}

// Format writes an instance in the text format.
func Format(w io.Writer, p *csp.Instance) error {
	if _, err := fmt.Fprintf(w, "vars %d\ndom %d\n", p.Vars, p.Dom); err != nil {
		return err
	}
	if p.Names != nil {
		if _, err := fmt.Fprintf(w, "names %s\n", strings.Join(p.Names, " ")); err != nil {
			return err
		}
	}
	if p.Domains != nil {
		for v, d := range p.Domains {
			if d == nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "dom_of %d : %s\n", v, intsToString(d)); err != nil {
				return err
			}
		}
	}
	for _, con := range p.Constraints {
		rows := make([]string, 0, con.Table.Len())
		for _, row := range con.Table.Tuples() {
			rows = append(rows, intsToString(row))
		}
		if _, err := fmt.Fprintf(w, "con %s : %s\n", intsToString(con.Scope), strings.Join(rows, " | ")); err != nil {
			return err
		}
	}
	return nil
}

// ParseDIMACS reads a DIMACS "edge" graph.
func ParseDIMACS(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24) // grows from 4 KiB as long lines need
	var g *graph.Graph
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "p":
			if len(fields) < 3 || fields[1] != "edge" {
				return nil, fmt.Errorf("cspio: bad DIMACS header %q", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("cspio: bad vertex count %q", fields[2])
			}
			g = graph.New(n)
		case "e":
			if g == nil {
				return nil, fmt.Errorf("cspio: edge before header")
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("cspio: bad edge line %q", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 1 || v < 1 || u > g.N() || v > g.N() {
				return nil, fmt.Errorf("cspio: bad edge %q", line)
			}
			g.AddEdge(u-1, v-1)
		default:
			return nil, fmt.Errorf("cspio: unknown DIMACS line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("cspio: missing DIMACS header")
	}
	return g, nil
}

// parseInts appends the whitespace-separated integers of s to dst, which
// may be a reused buffer.
func parseInts(dst []int, s string) ([]int, error) {
	out := dst
	for {
		// strings.Fields without its per-call slice.
		s = strings.TrimLeftFunc(s, unicode.IsSpace)
		if s == "" {
			break
		}
		f := s
		if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
			f, s = s[:i], s[i:]
		} else {
			s = ""
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return dst, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	if len(out) == len(dst) {
		return dst, fmt.Errorf("empty integer list")
	}
	return out, nil
}

func intsToString(s []int) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, " ")
}
