package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compare reads two sets of result records (JSON lines written with
// --out), the parent's and the change's, run in alternating order, and
// prints per workload each end-to-end metric's median and quartiles on
// both sides, the change's win share over the pairs, and a verdict: a gain
// needs nine tenths of the pairs won and a median shift beyond the
// parent's own spread; where the
// parent's spread is wider than the metric's bound the pairing is
// "unresolved" unless every change run beats every parent run. Runs of one
// seed whose ACL digests differ are reported.
func compare(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare PARENT.jsonl CHANGE.jsonl")
	}
	parent, err := readRecords(args[0])
	if err != nil {
		return err
	}
	change, err := readRecords(args[1])
	if err != nil {
		return err
	}
	var names []string
	for wl := range parent {
		if _, ok := change[wl]; ok {
			names = append(names, wl)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced records on both sides")
	}
	sort.Strings(names)
	for _, wl := range names {
		p, c := parent[wl], change[wl]
		fmt.Fprintf(out, "%s: %d parent runs, %d change runs\n", wl, len(p), len(c))
		// Rounds are a pure function of the seed: a change that only
		// claims speed must publish the same ACLs.
		digests := map[uint64]string{}
		for _, r := range append(append([]*record(nil), p...), c...) {
			if d, ok := digests[r.Seed]; ok && d != r.ACLDigest {
				fmt.Fprintf(out, "  seed %d: ACL digest %s differs from %s\n", r.Seed, r.ACLDigest, d)
			}
			digests[r.Seed] = r.ACLDigest
		}
		fmt.Fprintf(out, "  %-14s %-34s %-34s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
		for _, d := range endToEnd {
			pv, cv := metricValues(p, d.name), metricValues(c, d.name)
			if len(pv) < 2 || len(cv) < 2 {
				fmt.Fprintf(out, "  %-14s needs two runs a side\n", d.name)
				continue
			}
			fmt.Fprintf(out, "  %-14s %-34s %-34s %5.0f%%  %s\n", d.name, summary(pv), summary(cv),
				100*winShare(d, pv, cv), verdict(d, pv, cv))
		}
	}
	return nil
}

func readRecords(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

func metricValues(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// better reports whether a beats b in the metric's direction.
func better(d metricDef, a, b float64) bool {
	if d.better == "higher" {
		return a > b
	}
	return a < b
}

// winShare pairs the i-th change run with the i-th parent run and returns
// the share of pairs the change wins; ties count for neither side.
func winShare(d metricDef, p, c []float64) float64 {
	n := min(len(p), len(c))
	wins := 0
	for i := 0; i < n; i++ {
		if better(d, c[i], p[i]) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

func verdict(d metricDef, p, c []float64) string {
	mp, mc := median(p), median(c)
	q1, q3 := quartiles(p)
	spread := (q3 - q1) / mp
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			if !better(d, x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "gain (every change run beats every parent run)"
	case spread > d.bound:
		return fmt.Sprintf("unresolved (parent spread %.1f%% > bound %.0f%%)", 100*spread, 100*d.bound)
	case winShare(d, p, c) >= 0.9 && better(d, mc, mp) && math.Abs(mc-mp) > q3-q1:
		return "gain"
	case better(d, mp, mc) && math.Abs(mc-mp) > d.bound*mp:
		return fmt.Sprintf("regression (%.1f%% worse > bound %.0f%%)", 100*math.Abs(mc-mp)/mp, 100*d.bound)
	}
	return "no change beyond bound"
}
