package main

import (
	"context"
	"fmt"
	"io"
	"sort"
)

// layerTable is a per-layer breakdown whose rows plus the unattributed row
// sum to the measured total.
type layerTable struct {
	title, unit string
	rows        []layerRow
	total       float64
}

type layerRow struct {
	name  string
	value float64
}

// unattributed is the part of the total no row accounts for. It is
// negative when layers overlap in time: the collector and the queue
// consumer run on different goroutines.
func (t *layerTable) unattributed() float64 {
	u := t.total
	for _, r := range t.rows {
		u -= r.value
	}
	return u
}

func (t *layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "%s (%s)\n", t.title, t.unit)
	for _, r := range t.rows {
		fmt.Fprintf(w, "  %-22s %12.3f\n", r.name, r.value)
	}
	fmt.Fprintf(w, "  %-22s %12.3f\n", "unattributed", t.unattributed())
	fmt.Fprintf(w, "  %-22s %12.3f\n", "total", t.total)
}

// traceReport is what a traced run prints besides its metrics.
type traceReport struct {
	ingest, round layerTable
	self          map[string]int64
}

func (r *traceReport) print(w io.Writer) {
	r.ingest.print(w)
	r.round.print(w)
	names := make([]string, 0, len(r.self))
	for n := range r.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return r.self[names[i]] > r.self[names[j]] })
	fmt.Fprintln(w, "span self time (ms)")
	for _, n := range names {
		fmt.Fprintf(w, "  %-22s %12.3f\n", n, float64(r.self[n])/1e6)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// roundMeans averages one round layer over the traced rounds, in ms.
func roundMeans(rounds []roundLayers, f func(*roundLayers) int64) float64 {
	xs := make([]float64, len(rounds))
	for i := range rounds {
		xs[i] = float64(f(&rounds[i])) / 1e6
	}
	return mean(xs)
}

// traceMetrics fills rec with the per-layer metrics of a traced run: the
// untraced passes rs give the totals, the traced passes ts the inline
// counts and round replays, and a replay of each ingest layer the rest.
func (o *opts) traceMetrics(ctx context.Context, c *corpus, rs, ts *runSet, tr *tracer, rec *record) *traceReport {
	w := o.w
	last := ts.passes[len(ts.passes)-1]
	il := replayIngest(ctx, c, w, o.seed, last.progByMin)
	put := func(name string, v float64) { rec.Metrics[name] = value{Value: v, Unit: unitOf(name)} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	put("sflow.ns_per_record", il.sflowNS)
	put("sflow.allocs_per_record", il.sflowAllocs)
	put("sflow.records_per_datagram", ratio(float64(il.records), float64(il.datagrams)))
	put("sflow.decode_errors", float64(il.decodeErrors))
	put("bgp.label_ns_per_call", il.labelNS)
	put("bgp.blackholed_share", ratio(float64(tr.labelHits), float64(tr.labelCalls)))
	put("segment.records_per_batch", ratio(float64(last.segRecords), float64(last.segBatches)))
	put("segment.read_wait_share", ts.each(func(p *passResult) float64 { return ratio(float64(p.readWait), float64(p.timedNS)) }))

	put("dropper.ns_per_record", il.dropNS)
	put("dropper.allocs_per_record", il.dropAllocs)
	put("dropper.drop_share", il.dropShare)
	put("dropper.rules", float64(last.rulesMax))
	put("dropper.compile_ms_p50", median(toFloats(compileTimes(tr.rounds), 1e6)))
	put("dropper.swaps", float64(last.swaps))

	put("netflow.queue_ns_per_batch", il.queueNSPerBatch)
	put("netflow.queue_blocked_puts", float64(last.blockedPuts))
	put("netflow.queue_dropped_records", float64(last.qDropped))
	put("netflow.lost_share", float64(last.qDropped)/float64(c.records()))

	put("balance.ns_per_record", il.balanceNS)
	put("balance.allocs_per_record", il.balAllocs)
	put("balance.kept_share", il.keptShare)

	put("ixpsim.consume_ns_per_record", il.consumeNS)
	put("ixpsim.consume_allocs_per_record", il.consAlloc)
	put("ixpsim.window_records", float64(last.windowMax))
	put("ixpsim.rounds", float64(len(rs.rounds)))

	rl := tr.rounds
	round := layerTable{title: "training round, mean over traced rounds", unit: "ms",
		total: roundMeans(rl, func(r *roundLayers) int64 { return r.total })}
	for _, l := range []struct {
		name string
		f    func(*roundLayers) int64
	}{
		{"ixpsim.snapshot", func(r *roundLayers) int64 { return r.snapshot }},
		{"tagging.mine", func(r *roundLayers) int64 { return r.mine }},
		{"features.aggregate", func(r *roundLayers) int64 { return r.aggregate }},
		{"woe.encode", func(r *roundLayers) int64 { return r.encode }},
		{"core.fit", func(r *roundLayers) int64 { return r.fit }},
		{"core.predict", func(r *roundLayers) int64 { return r.predict }},
		{"acl.generate", func(r *roundLayers) int64 { return r.generate }},
		{"acl.publish", func(r *roundLayers) int64 { return r.publish }},
		{"dropper.compile", func(r *roundLayers) int64 { return r.compile }},
	} {
		round.rows = append(round.rows, layerRow{l.name, roundMeans(rl, l.f)})
	}
	put("ixpsim.snapshot_ms", round.rows[0].value)
	put("tagging.mine_ms", round.rows[1].value)
	put("features.aggregate_ms", round.rows[2].value)
	put("woe.encode_ms", round.rows[3].value)
	put("core.fit_ms", round.rows[4].value)
	put("acl.generate_ms", round.rows[6].value)
	put("acl.publish_ms", round.rows[7].value)
	put("ixpsim.round_unattributed_ms", round.unattributed())
	var rules, aggs, entries, predUS []float64
	for _, r := range rl {
		rules = append(rules, float64(r.rulesMined))
		aggs = append(aggs, float64(r.aggregates))
		entries = append(entries, float64(r.entries))
		predUS = append(predUS, ratio(float64(r.predict)/1e3, float64(r.aggregates)))
	}
	put("tagging.rules_mined", mean(rules))
	put("features.aggregates", mean(aggs))
	put("core.predict_us_per_aggregate", mean(predUS))
	put("acl.entries", mean(entries))

	m := rs.first.mit
	put("mitigation.attack_drop_share", ratio(float64(m.attackDropped), float64(m.attack)))
	put("mitigation.benign_drop_share", ratio(float64(m.benignDropped), float64(m.benign)))
	put("mitigation.mitigate_min_p50", m.mitigateMinP50)
	put("mitigation.victim_mitigated_share", ratio(float64(m.mitigated), float64(m.victims)))

	// The ingest identity, per record fed: decode, label, drop, and the
	// consumer's share for the records the dropper let through.
	ingest := layerTable{title: "ingest, per record fed", unit: "ns", total: 1e9 / rs.ingestRPS()}
	reach := 1.0
	drop := 0.0
	if w.drop {
		reach, drop = 1-il.dropShare, il.dropNS
	}
	ingest.rows = []layerRow{
		{"sflow", il.sflowNS},
		{"bgp.label", il.labelNS},
		{"dropper", drop},
		{"ixpsim.consume", il.consumeNS * reach},
	}
	put("ingest.total_ns_per_record", ingest.total)
	put("ingest.unattributed_ns_per_record", ingest.unattributed())
	untraced, traced := rs.realtime(), ts.realtime()
	put("trace.overhead_share", (untraced-traced)/untraced)
	return &traceReport{ingest: ingest, round: round, self: tr.selfTimes()}
}

func compileTimes(rounds []roundLayers) []int64 {
	out := make([]int64, len(rounds))
	for i := range rounds {
		out[i] = rounds[i].compile + rounds[i].compileAlone
	}
	return out
}
