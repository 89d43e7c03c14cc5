package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// scrape is one server's /metrics?format=json snapshot plus the metric
// families its Prometheus exposition declares. A labeled vector has no
// series until first incremented, so the declared families are what tell
// "registered but zero" from "missing".
type scrape struct {
	values   map[string]json.RawMessage
	families map[string]bool
}

func takeScrape(c *http.Client, url string) (*scrape, error) {
	s := &scrape{values: map[string]json.RawMessage{}, families: map[string]bool{}}
	resp, err := c.Get(url + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&s.values)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("decode %s/metrics: %w", url, err)
	}
	resp, err = c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			s.families[f[2]] = true
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return s, sc.Err()
}

// promFamily is the exposition name of a registry metric: dots become
// underscores and counters gain _total.
func promFamily(name string, counter bool) string {
	n := strings.ReplaceAll(name, ".", "_")
	if counter {
		n += "_total"
	}
	return n
}

// histogram is the count/sum part of a histogram snapshot.
type histogram struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

// delta reads metrics as differences between two scrapes of one server
// (or, summed, of several). A read of a metric the servers do not export
// returns 0, records the name in missing and sets miss, which callers clear
// to tell whether one computation read a missing metric.
type delta struct {
	before, after []*scrape
	missing       map[string]bool
	miss          bool
}

func (d *delta) markMissing(name string) {
	d.missing[name] = true
	d.miss = true
}

func newDelta(before, after []*scrape) *delta {
	return &delta{before: before, after: after, missing: map[string]bool{}}
}

// counter returns the summed change of a plain counter or gauge.
func (d *delta) counter(name string) float64 {
	var total float64
	for i := range d.after {
		a, ok := d.after[i].values[name]
		if !ok {
			d.markMissing(name)
			return 0
		}
		var av, bv float64
		_ = json.Unmarshal(a, &av)
		if b, ok := d.before[i].values[name]; ok {
			_ = json.Unmarshal(b, &bv)
		}
		total += av - bv
	}
	return total
}

// series returns the summed change of one labeled series of a counter
// vector; labels are name=value pairs in the vector's label order.
func (d *delta) series(vec string, labels ...string) float64 {
	var total float64
	id := seriesID(vec, labels)
	for i := range d.after {
		if !d.after[i].families[promFamily(vec, true)] {
			d.markMissing(vec)
			return 0
		}
		var av, bv float64
		if a, ok := d.after[i].values[id]; ok {
			_ = json.Unmarshal(a, &av)
		}
		if b, ok := d.before[i].values[id]; ok {
			_ = json.Unmarshal(b, &bv)
		}
		total += av - bv
	}
	return total
}

// seriesSum sums series over the values of one label of a vector whose
// other labels are fixed by rest.
func (d *delta) seriesSum(vec, label string, values []string, rest ...string) float64 {
	total := 0.0
	for _, v := range values {
		total += d.series(vec, append([]string{label + "=" + v}, rest...)...)
	}
	return total
}

// histSeries returns the summed change in count and sum of one series of a
// histogram vector (labels as for series) or, with no labels, of a plain
// histogram.
func (d *delta) histSeries(name string, labels ...string) (count, sum float64) {
	id := name
	if len(labels) > 0 {
		id = seriesID(name, labels)
	}
	for i := range d.after {
		if !d.after[i].families[promFamily(name, false)] {
			d.markMissing(name)
			return 0, 0
		}
		var a, b histogram
		if raw, ok := d.after[i].values[id]; ok {
			_ = json.Unmarshal(raw, &a)
		}
		if raw, ok := d.before[i].values[id]; ok {
			_ = json.Unmarshal(raw, &b)
		}
		count += float64(a.Count - b.Count)
		sum += float64(a.Sum - b.Sum)
	}
	return count, sum
}

// seriesID renders name{k1="v1",k2="v2"} as the JSON snapshot keys series.
func seriesID(name string, labels []string) string {
	var b bytes.Buffer
	b.WriteString(name)
	b.WriteByte('{')
	for i, kv := range labels {
		k, v, _ := strings.Cut(kv, "=")
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, v)
	}
	b.WriteByte('}')
	return b.String()
}
