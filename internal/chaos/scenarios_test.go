package chaos_test

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/chaos"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// The scenario matrix shares one traffic script (same profile, minutes and
// training schedule) so that fault scenarios can be compared bit-for-bit
// against the fault-free reference.
const (
	scenarioMinutes = 8
	heapLimit       = 512 << 20
)

var trainSchedule = []int64{4, 7}

func baseScenario(name string) chaos.Scenario {
	return chaos.Scenario{
		Name:    name,
		Minutes: scenarioMinutes,
		TrainAt: append([]int64(nil), trainSchedule...),
	}
}

// runs is how many times every scenario replays; all replays must produce
// identical outcomes.
const runs = 3

func runScenario(t *testing.T, sc chaos.Scenario) []*chaos.Outcome {
	t.Helper()
	outs := make([]*chaos.Outcome, 0, runs)
	for i := 0; i < runs; i++ {
		out, err := chaos.Run(context.Background(), sc, t.TempDir())
		if err != nil {
			t.Fatalf("run %d of %s: %v", i, sc.Name, err)
		}
		outs = append(outs, out)
	}
	for i := 1; i < runs; i++ {
		if outs[i].Key() != outs[0].Key() {
			t.Fatalf("scenario %s is nondeterministic:\nrun 0:\n%s\nrun %d:\n%s",
				sc.Name, outs[0].Key(), i, outs[i].Key())
		}
	}
	return outs
}

// metricValue extracts one sample value from the rendered exposition.
func metricValue(t *testing.T, metrics, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("series %q not found in metrics output", series)
	return 0
}

// TestChaosScenarios drives the full pipeline through the fault matrix.
// Every scenario asserts three layers of invariants: determinism (three
// seeded runs produce identical outcomes), survival (no goroutine leaks,
// bounded heap, the run completes), and output (for faults the pipeline
// must fully absorb, classifications and ACLs bit-identical to the
// fault-free reference; for lossy faults, exact loss accounting).
func TestChaosScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios replay full pipeline runs; skipped in -short")
	}

	ref := runScenario(t, baseScenario("reference"))[0]
	if ref.Kept == 0 || len(ref.Rounds) != 2 {
		t.Fatalf("reference run produced no training signal: kept=%d rounds=%d",
			ref.Kept, len(ref.Rounds))
	}
	if ref.Rounds[1].Skipped || len(ref.Rounds[1].Flagged) == 0 {
		t.Fatalf("reference final round did not classify: %+v", ref.Rounds[1])
	}
	if ref.ACLFile == "" {
		t.Fatal("reference run published no ACL file")
	}
	// Labels come from the live BGP session: the collector's blackholed
	// count must match the generator's ground truth for the same minutes.
	truth := 0
	gen := synth.NewGenerator(chaos.DefaultProfile())
	for _, f := range gen.Generate(chaos.DefaultStartMin, chaos.DefaultStartMin+scenarioMinutes) {
		if f.Blackholed {
			truth++
		}
	}
	if truth == 0 {
		t.Fatal("ground truth has no blackholed flows; profile too quiet")
	}
	if got := metricValue(t, ref.Metrics, `ixps_collector_blackholed_total{proto="sflow"}`); got < 0.8*float64(truth) || got > 1.2*float64(truth) {
		t.Errorf("live blackholed = %v, ground truth = %d (outside ±20%%)", got, truth)
	}
	// The balancer keeps every blackholed record plus a benign sample of up
	// to the same size, so the kept stream stays near half blackholed.
	kept := metricValue(t, ref.Metrics, "ixps_balancer_records_kept_total")
	if share := metricValue(t, ref.Metrics, "ixps_balancer_blackholed_kept_total") / kept; share < 0.35 || share > 0.70 {
		t.Errorf("balanced blackhole share = %.3f, want in [0.35, 0.70]", share)
	}

	scenarios := []struct {
		sc chaos.Scenario
		// bitExact compares digests, rounds and ACL text to the reference.
		bitExact bool
		check    func(t *testing.T, out *chaos.Outcome)
	}{
		{
			sc:       baseScenario("baseline"),
			bitExact: true,
			check: func(t *testing.T, out *chaos.Outcome) {
				if out.Samples != out.SentSamples || out.Truncated != 0 || out.DecodeErrs != 0 {
					t.Errorf("healthy run mangled input: %+v", out)
				}
				if out.Ingested != out.Records {
					t.Errorf("records lost between collector and balancer: ingested=%d converted=%d",
						out.Ingested, out.Records)
				}
				if got := metricValue(t, out.Metrics, "ixps_training_rounds_total"); got != 2 {
					t.Errorf("ixps_training_rounds_total = %v, want 2", got)
				}
			},
		},
		{
			sc: func() chaos.Scenario {
				sc := baseScenario("truncated-datagrams")
				sc.DupTruncate = true
				return sc
			}(),
			bitExact: true,
			check: func(t *testing.T, out *chaos.Outcome) {
				if out.Truncated != out.SentDatagrams {
					t.Errorf("Truncated = %d, want one per valid datagram (%d)",
						out.Truncated, out.SentDatagrams)
				}
				if got := metricValue(t, out.Metrics,
					`ixps_collector_truncated_total{proto="sflow"}`); got != float64(out.Truncated) {
					t.Errorf("truncated metric = %v, counter = %d", got, out.Truncated)
				}
			},
		},
		{
			sc: func() chaos.Scenario {
				sc := baseScenario("garbage-datagrams")
				sc.DupGarbage = true
				return sc
			}(),
			bitExact: true,
			check: func(t *testing.T, out *chaos.Outcome) {
				if out.DecodeErrs != out.SentDatagrams {
					t.Errorf("DecodeErrs = %d, want one per valid datagram (%d)",
						out.DecodeErrs, out.SentDatagrams)
				}
				if got := metricValue(t, out.Metrics,
					`ixps_collector_malformed_total{proto="sflow"}`); got != float64(out.DecodeErrs) {
					t.Errorf("malformed metric = %v, counter = %d", got, out.DecodeErrs)
				}
			},
		},
		{
			sc: func() chaos.Scenario {
				sc := baseScenario("collector-socket-errors")
				sc.SocketErrAt = []int64{2, 5}
				return sc
			}(),
			bitExact: true,
			check: func(t *testing.T, out *chaos.Outcome) {
				if out.CollectorRestarts != 2 {
					t.Errorf("CollectorRestarts = %d, want 2", out.CollectorRestarts)
				}
				if out.Samples != out.SentSamples {
					t.Errorf("socket replacement lost samples: %d of %d", out.Samples, out.SentSamples)
				}
			},
		},
		{
			sc: func() chaos.Scenario {
				sc := baseScenario("bgp-session-drops")
				sc.KillBGPAt = []int64{1, 4, 6}
				return sc
			}(),
			bitExact: true,
			check: func(t *testing.T, out *chaos.Outcome) {
				if out.Reconnects != 3 {
					t.Errorf("Reconnects = %d, want 3", out.Reconnects)
				}
				if got := metricValue(t, out.Metrics,
					`ixps_bgp_member_reconnects_total{member="as64501"}`); got != 3 {
					t.Errorf("reconnect metric = %v, want 3", got)
				}
			},
		},
		{
			sc: func() chaos.Scenario {
				sc := baseScenario("withdraw-storm")
				sc.WithdrawStorm = 40
				return sc
			}(),
			bitExact: true,
			check: func(t *testing.T, out *chaos.Outcome) {
				if want := ref.Blackholes + 40; out.Blackholes != want {
					t.Errorf("Blackholes = %d, want %d (reference + 40 decoys)",
						out.Blackholes, want)
				}
			},
		},
		{
			sc: func() chaos.Scenario {
				sc := baseScenario("clock-skew")
				sc.SkewAt = []int64{3, 6}
				return sc
			}(),
			bitExact: true,
			check: func(t *testing.T, out *chaos.Outcome) {
				wantLate := out.SentSamples - ref.SentSamples // the skewed duplicates
				if wantLate == 0 || out.Late != wantLate {
					t.Errorf("Late = %d, want %d (every skewed record, no more)",
						out.Late, wantLate)
				}
				if got := metricValue(t, out.Metrics,
					"ixps_balancer_late_records_total"); got != float64(out.Late) {
					t.Errorf("late metric = %v, counter = %d", got, out.Late)
				}
			},
		},
		{
			// The consumer stalls for minutes 5-7 with a queue that holds
			// one normal minute comfortably but not three: the stall backlog
			// overflows and the drop policy engages. The scenario runs four
			// extra minutes past the stall so the final round trains on a
			// healthy window again. TrainAt keeps the reference's round@4
			// (pre-stall, so the prefix stays comparable) and moves the
			// final round to minute 11.
			sc: func() chaos.Scenario {
				sc := baseScenario("stuck-consumer")
				sc.Minutes = 12
				sc.TrainAt = []int64{4, 11}
				sc.StuckFrom, sc.StuckTo = 5, 7
				sc.QueueCap = 16
				sc.Drop = netflow.DropNewest
				return sc
			}(),
			check: func(t *testing.T, out *chaos.Outcome) {
				if out.DroppedBatches == 0 || out.DroppedRecords == 0 {
					t.Fatalf("stall dropped nothing: %+v", out)
				}
				// Conservation: every converted record was either balanced
				// or counted as dropped — nothing vanished silently.
				if out.Ingested+out.DroppedRecords != out.Records {
					t.Errorf("records unaccounted for: ingested=%d dropped=%d converted=%d",
						out.Ingested, out.DroppedRecords, out.Records)
				}
				// Up to the stall, the stream matches the reference (the
				// first two kept minutes precede StuckFrom).
				if got, want := prefixDigests(out, 2), prefixDigests(ref, 2); got == "" || got != want {
					t.Errorf("pre-stall stream diverged:\n%s\nwant:\n%s", got, want)
				}
				if out.Rounds[1].Skipped || len(out.Rounds[1].Flagged) == 0 {
					t.Errorf("pipeline did not recover to train after the stall: %+v", out.Rounds[1])
				}
				if got := metricValue(t, out.Metrics,
					`ixps_queue_dropped_records_total{stage="ingest"}`); got != float64(out.DroppedRecords) {
					t.Errorf("drop metric = %v, counter = %d", got, out.DroppedRecords)
				}
			},
		},
		{
			sc: func() chaos.Scenario {
				sc := baseScenario("label-panic")
				sc.PanicAt = []int64{2}
				return sc
			}(),
			check: func(t *testing.T, out *chaos.Outcome) {
				if out.Panics != 1 {
					t.Errorf("Panics = %d, want 1", out.Panics)
				}
				// Exactly the poisoned datagram's records are lost.
				if out.Ingested != out.SentSamples-16 {
					t.Errorf("Ingested = %d, want %d (one 16-sample datagram sacrificed)",
						out.Ingested, out.SentSamples-16)
				}
				if got, want := prefixDigests(out, 2), prefixDigests(ref, 2); got != want {
					t.Errorf("pre-panic stream diverged:\n%s\nwant:\n%s", got, want)
				}
				if out.Rounds[1].Skipped {
					t.Error("pipeline did not keep training after the panic")
				}
				if got := metricValue(t, out.Metrics,
					`ixps_collector_panics_total{proto="sflow"}`); got != 1 {
					t.Errorf("panic metric = %v, want 1", got)
				}
			},
		},
		{
			sc: func() chaos.Scenario {
				sc := baseScenario("torn-acl-writes")
				sc.FlakyWrites = true
				return sc
			}(),
			bitExact: true,
			check: func(t *testing.T, out *chaos.Outcome) {
				if out.WriterWrites == 0 || out.WriterRetries != 2*out.WriterWrites {
					t.Errorf("writes=%d retries=%d, want 2 retries per publish",
						out.WriterWrites, out.WriterRetries)
				}
				if out.TornWrites != out.WriterRetries {
					t.Errorf("TornWrites = %d, want %d", out.TornWrites, out.WriterRetries)
				}
			},
		},
		{
			// Registry-backed serving must be invisible downstream: every
			// round publishes its model to the on-disk registry and serves
			// the re-loaded bundle, and the output still matches the
			// in-process reference bit for bit — the full-stack hot-swap
			// equivalence guarantee.
			sc: func() chaos.Scenario {
				sc := baseScenario("registry-backed")
				sc.Registry = true
				return sc
			}(),
			bitExact: true,
			check: func(t *testing.T, out *chaos.Outcome) {
				if out.RegistryVersions != 2 || out.RegistryChampionSeq != 2 {
					t.Errorf("registry state: versions=%d champion=%d, want 2/2",
						out.RegistryVersions, out.RegistryChampionSeq)
				}
				if got := metricValue(t, out.Metrics, "ixps_registry_publishes_total"); got != 2 {
					t.Errorf("ixps_registry_publishes_total = %v, want 2", got)
				}
				if got := metricValue(t, out.Metrics, "ixps_model_promotions_total"); got != 2 {
					t.Errorf("ixps_model_promotions_total = %v, want 2", got)
				}
			},
		},
		{
			// A persistent model-store outage from minute 5 on: round@4
			// published and promoted seq 1; round@7's publish fails past the
			// retry budget. The round must still succeed — the last-good
			// champion keeps serving and writes the ACL — and the on-disk
			// registry (re-read from scratch at collect time) still resolves
			// the pre-outage champion despite the torn temp files the outage
			// left behind.
			sc: func() chaos.Scenario {
				sc := baseScenario("registry-outage")
				sc.Registry = true
				sc.RegistryOutageAt = 5
				return sc
			}(),
			check: func(t *testing.T, out *chaos.Outcome) {
				if len(out.Rounds) != 2 {
					t.Fatalf("rounds = %d, want 2", len(out.Rounds))
				}
				if out.Rounds[0].Seq != 1 || !out.Rounds[0].Promoted {
					t.Errorf("pre-outage round did not promote seq 1: %+v", out.Rounds[0])
				}
				r := out.Rounds[1]
				if r.Skipped || r.Seq != 1 || r.Promoted {
					t.Errorf("outage round must serve last-good seq 1 unpromoted: %+v", r)
				}
				if len(r.Flagged) == 0 || out.ACLFile == "" {
					t.Error("champion stopped producing ACLs during the outage")
				}
				// Pre-outage output matches the reference exactly.
				if out.Rounds[0].ACLDigest != ref.Rounds[0].ACLDigest {
					t.Error("pre-outage round diverged from reference")
				}
				if out.RegistryTorn == 0 {
					t.Error("outage tore no writes; fault not exercised")
				}
				if out.RegistryVersions != 1 || out.RegistryChampionSeq != 1 {
					t.Errorf("registry after outage: versions=%d champion=%d, want 1/1 (last-good)",
						out.RegistryVersions, out.RegistryChampionSeq)
				}
				if got := metricValue(t, out.Metrics, "ixps_registry_publish_failures_total"); got != 1 {
					t.Errorf("ixps_registry_publish_failures_total = %v, want 1", got)
				}
			},
		},
		{
			// Champion/challenger lifecycle under script: round@4 seeds the
			// champion (seq 1), round@7 trains seq 2 into the shadow slot
			// (champion still serves), minute 9 promotes it, round@11 serves
			// seq 2 while shadowing the next challenger. Auto-promotion is
			// disabled, so the serving schedule is exact.
			sc: func() chaos.Scenario {
				sc := baseScenario("shadow-registry-promote")
				sc.Minutes = 12
				sc.TrainAt = []int64{4, 7, 11}
				sc.PromoteAt = []int64{9}
				sc.Registry = true
				sc.Shadow = true
				return sc
			}(),
			check: func(t *testing.T, out *chaos.Outcome) {
				if len(out.Rounds) != 3 {
					t.Fatalf("rounds = %d, want 3", len(out.Rounds))
				}
				type lc struct {
					seq      uint64
					promoted bool
					shadowed bool
				}
				want := []lc{{1, true, false}, {1, false, true}, {2, false, true}}
				for i, w := range want {
					r := out.Rounds[i]
					if r.Seq != w.seq || r.Promoted != w.promoted || r.Shadowed != w.shadowed {
						t.Errorf("round %d lifecycle = seq=%d prom=%v shad=%v, want %+v",
							i, r.Seq, r.Promoted, r.Shadowed, w)
					}
				}
				if out.RegistryChampionSeq != 2 || out.RegistryVersions != 3 {
					t.Errorf("registry state: versions=%d champion=%d, want 3 versions, champion seq 2",
						out.RegistryVersions, out.RegistryChampionSeq)
				}
				if got := metricValue(t, out.Metrics, "ixps_model_promotions_total"); got != 2 {
					t.Errorf("ixps_model_promotions_total = %v, want 2", got)
				}
				if got := metricValue(t, out.Metrics, "ixps_shadow_scored_total"); got == 0 {
					t.Error("ixps_shadow_scored_total = 0, want shadow verdicts")
				}
			},
		},
		{
			// Mitigation fast path live in front of ingest: round@4 compiles
			// the champion's drop verdicts and hot-swaps them into the match
			// stage mid-storm, so minutes 5+ shed attack records before the
			// queue. Not compared to the reference — dropping reshapes the
			// training stream by design — but three replays must still be
			// bit-identical (compilation and matching are deterministic),
			// and record conservation must hold exactly across every swap.
			sc: func() chaos.Scenario {
				sc := baseScenario("drop-stage-swap")
				sc.Minutes = 12
				sc.TrainAt = []int64{4, 7, 11}
				sc.Dropper = true
				return sc
			}(),
			check: func(t *testing.T, out *chaos.Outcome) {
				if len(out.Rounds) != 3 {
					t.Fatalf("rounds = %d, want 3", len(out.Rounds))
				}
				if out.DropperSwaps != 3 {
					t.Errorf("DropperSwaps = %d, want one hot swap per round", out.DropperSwaps)
				}
				if out.DropperDropped == 0 {
					t.Error("compiled verdicts dropped nothing; fast path not exercised")
				}
				// Every converted record entered the stage, and every one of
				// them either reached the balancer or was dropped by a rule —
				// recompile + swap lost nothing, not even mid-storm.
				if out.DropperEvaluated != out.Records {
					t.Errorf("stage evaluated %d of %d converted records",
						out.DropperEvaluated, out.Records)
				}
				if out.Ingested+out.DropperDropped != out.Records {
					t.Errorf("records unaccounted for across swaps: ingested=%d dropped=%d converted=%d",
						out.Ingested, out.DropperDropped, out.Records)
				}
				// The swap itself must never cost ingest: the queue saw no
				// batch or record drops at any point.
				if out.DroppedBatches != 0 || out.DroppedRecords != 0 {
					t.Errorf("queue dropped during swaps: batches=%d records=%d",
						out.DroppedBatches, out.DroppedRecords)
				}
				if out.Rounds[2].Skipped || len(out.Rounds[2].Flagged) == 0 {
					t.Errorf("pipeline stopped classifying with the dropper live: %+v", out.Rounds[2])
				}
				if !strings.Contains(out.Metrics, "ixps_dropper_rule_drops_total{rule=") {
					t.Error("per-rule drop counters missing from metrics")
				}
				if got := metricValue(t, out.Metrics, "ixps_dropper_dropped_total"); got != float64(out.DropperDropped) {
					t.Errorf("dropped metric = %v, counter = %d", got, out.DropperDropped)
				}
			},
		},
		{
			sc: func() chaos.Scenario {
				sc := baseScenario("checkpointed-run")
				sc.Checkpoint = true
				return sc
			}(),
			bitExact: true,
			check: func(t *testing.T, out *chaos.Outcome) {
				if !out.CheckpointOK {
					t.Error("no checkpoint file published")
				}
				if got := metricValue(t, out.Metrics, "ixps_checkpoints_total"); got != 2 {
					t.Errorf("ixps_checkpoints_total = %v, want 2 (one per round)", got)
				}
			},
		},
		{
			// Sketch-mode aggregation: the bounded-memory path replaces the
			// exact per-target maps, so the scenario is not compared against
			// the exact reference — runScenario already proves three replays
			// are bit-identical, and the checks prove the pipeline still
			// trains, classifies and publishes through the sketch path while
			// exporting its gauges.
			sc: func() chaos.Scenario {
				sc := baseScenario("sketch-aggregation")
				sc.SketchBudget = 0.05
				return sc
			}(),
			check: func(t *testing.T, out *chaos.Outcome) {
				if len(out.Rounds) != 2 || out.Rounds[1].Skipped || len(out.Rounds[1].Flagged) == 0 {
					t.Fatalf("sketch run did not classify: %+v", out.Rounds)
				}
				if out.ACLFile == "" {
					t.Error("sketch run published no ACL file")
				}
				// The balanced input stream is upstream of aggregation and
				// must match the exact reference bit for bit.
				if got, want := out.DigestsFrom(0), ref.DigestsFrom(0); got != want {
					t.Errorf("sketch mode disturbed the balanced stream:\n%s\nwant:\n%s", got, want)
				}
				if got := metricValue(t, out.Metrics, "ixps_features_resident_groups"); got <= 0 {
					t.Errorf("ixps_features_resident_groups = %v, want > 0", got)
				}
				if got := metricValue(t, out.Metrics, "ixps_features_sketch_bytes"); got <= 0 {
					t.Errorf("ixps_features_sketch_bytes = %v, want > 0", got)
				}
			},
		},
	}

	for _, tc := range scenarios {
		t.Run(tc.sc.Name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			outs := runScenario(t, tc.sc)
			out := outs[0]
			if tc.bitExact {
				if got, want := out.ExactKey(), ref.ExactKey(); got != want {
					t.Errorf("fault leaked into the output stream:\ngot:\n%s\nwant:\n%s", got, want)
				}
			}
			if tc.check != nil {
				tc.check(t, out)
			}
			chaos.CheckGoroutines(t, baseline)
			chaos.CheckHeap(t, heapLimit)
		})
	}
}

// prefixDigests renders an outcome's digests for relative minutes [0, n)
// — the prefix of the stream a mid-run fault must not have touched. All
// scenarios share the same start minute, so prefixes are comparable.
func prefixDigests(o *chaos.Outcome, n int64) string {
	first := int64(0)
	for m := range o.Digests {
		if first == 0 || m < first {
			first = m
		}
	}
	var b strings.Builder
	for m := first; m < first+n; m++ {
		if d, ok := o.Digests[m]; ok {
			fmt.Fprintf(&b, "%d=%016x\n", m, d)
		}
	}
	return b.String()
}
