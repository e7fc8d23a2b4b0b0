package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to a few minutes, keeping its shape: the same
// window, dropper and round cadence, at least one set-up and two timed
// rounds where the workload has them.
func tiny(w *workload) *workload {
	t := *w
	if t.warmMin > 0 {
		t.warmMin = 20
	}
	t.timedMin = 20
	return &t
}

func tinyRun(t *testing.T, w *workload, trace bool) (*record, *bytes.Buffer) {
	t.Helper()
	var log bytes.Buffer
	o := opts{w: tiny(w), seed: 3, seconds: time.Millisecond, trace: trace, log: &log, minRounds: 1,
		spans: filepath.Join(t.TempDir(), "spans.jsonl")}
	rec, err := o.run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, log.String())
	}
	return rec, &log
}

// TestTinyRunsEmitEveryMetric runs each workload untraced and traced and
// checks every named metric is reported with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, log := tinyRun(t, w, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(rec.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := rec.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %q", w.name, trace, d.name, v, d.unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%t: metric %s = %v", w.name, trace, d.name, v.Value)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if rec.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, rec.Metrics[d.name].Value)
					}
				}
			}
			if trace && !strings.Contains(log.String(), "spans:") {
				t.Errorf("%s: traced run wrote no span file:\n%s", w.name, log)
			}
		}
	}
}

// TestSwallowedDatagramTripsConservation loses one datagram inside the
// conn: the records fed no longer balance what the pipeline accounts for.
func TestSwallowedDatagramTripsConservation(t *testing.T) {
	w, _ := workloadByName("ingest")
	var log bytes.Buffer
	o := opts{w: tiny(w), seed: 3, seconds: time.Millisecond, log: &log, minRounds: 1,
		conn: func(f *feedConn) { f.swallow = 5 }}
	_, err := o.run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("run with a swallowed datagram: err = %v, want a conservation gate failure", err)
	}
}

// TestLayerIdentity checks that the per-layer rows plus the unattributed
// row equal the measured total, for the ingest and the round tables.
func TestLayerIdentity(t *testing.T) {
	w, _ := workloadByName("live")
	rec, _ := tinyRun(t, w, true)
	total := rec.Metrics["ingest.total_ns_per_record"].Value
	sum := rec.Metrics["sflow.ns_per_record"].Value + rec.Metrics["bgp.label_ns_per_call"].Value +
		rec.Metrics["dropper.ns_per_record"].Value +
		rec.Metrics["ixpsim.consume_ns_per_record"].Value*(1-rec.Metrics["dropper.drop_share"].Value) +
		rec.Metrics["ingest.unattributed_ns_per_record"].Value
	if math.Abs(sum-total) > 1e-6*total {
		t.Errorf("ingest rows + unattributed = %v, total %v", sum, total)
	}
	for _, tab := range []layerTable{
		{rows: []layerRow{{"a", 1.5}, {"b", 2}}, total: 3},
		{rows: []layerRow{{"a", 4}}, total: 10},
	} {
		s := tab.unattributed()
		for _, r := range tab.rows {
			s += r.value
		}
		if s != tab.total {
			t.Errorf("table %+v: rows + unattributed = %v", tab, s)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metric
// and workload tables.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, want %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		g := b.EndToEnd[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v, want %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		g := b.PerLayer[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per_layer %d: %+v, want %+v", i, g, d)
		}
	}
}
