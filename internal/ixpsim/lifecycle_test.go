package ixpsim

// Lifecycle tests: hot-swap equivalence (registry-backed serving is
// bit-identical to in-process serving), shadow scoring with mid-run
// promotion, publish-failure degradation, classifier-only import, and the
// concurrency of the atomic champion pointer under -race.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/core"
	"github.com/ixp-scrubber/ixpscrubber/internal/drift"
	"github.com/ixp-scrubber/ixpscrubber/internal/features"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/par"
	"github.com/ixp-scrubber/ixpscrubber/internal/registry"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// lcStart anchors simulated time (2021-01-01 UTC in unix minutes).
const lcStart = int64(26_830_080)

// lcProfile is a small vantage point: every minute carries blackholed
// episodes, training rounds flag targets, and a full multi-round run stays
// well under a second.
func lcProfile() synth.Profile {
	p := synth.ProfileUS2()
	p.Name = "IXP-LIFECYCLE"
	p.Seed = 0xC0FFEE
	p.BenignFlowsPerMin = 96
	p.TargetIPs = 48
	p.BenignSrcIPs = 192
	p.EpisodeRatePerMin = 0.3
	p.EpisodeDurMeanMin = 6
	p.AttackFlowsPerMin = 24
	return p
}

func lcBackoff() *par.Backoff {
	return &par.Backoff{Base: time.Millisecond, Sleep: func(time.Duration) {}}
}

func lcRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	reg, err := registry.Open(t.TempDir(), registry.Options{
		Clock: func() time.Time { return time.Unix(lcStart*60, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.Writer().Backoff = lcBackoff()
	return reg
}

// driveRounds feeds the profile's traffic straight into the balancer minute
// by minute (no sockets, no goroutines — fully deterministic) and runs a
// training round every trainEvery minutes. hook runs after each minute's
// feed, before any round.
func driveRounds(t testing.TB, p *Pipeline, minutes, trainEvery int64, hook func(m int64)) []*Round {
	return driveRoundsFrom(t, p, lcStart, minutes, trainEvery, hook)
}

func driveRoundsFrom(t testing.TB, p *Pipeline, startMin, minutes, trainEvery int64, hook func(m int64)) []*Round {
	return driveProfileRounds(t, p, lcProfile(), startMin, minutes, trainEvery, hook)
}

func driveProfileRounds(t testing.TB, p *Pipeline, prof synth.Profile, startMin, minutes, trainEvery int64, hook func(m int64)) []*Round {
	t.Helper()
	gen := synth.NewGenerator(prof)
	ctx := context.Background()
	var rounds []*Round
	var buf []synth.Flow
	for m := int64(0); m < minutes; m++ {
		abs := startMin + m
		buf = gen.GenerateMinute(abs, buf[:0])
		recs := synth.Records(buf)
		p.balMu.Lock()
		p.bal.AddBatch(recs)
		p.balMu.Unlock()
		if hook != nil {
			hook(m)
		}
		if (m+1)%trainEvery == 0 {
			r, err := p.TrainRound(ctx, (abs+1)*60)
			if err != nil {
				t.Fatalf("round at minute %d: %v", m, err)
			}
			rounds = append(rounds, r)
		}
	}
	return rounds
}

// roundKey reduces a round to a comparable line; equal keys mean equal
// serving behavior (verdicts, ACL bytes, model sequence).
func roundKey(r *Round) string {
	h := fnv.New64a()
	h.Write([]byte(r.ACLText))
	return fmt.Sprintf("skip=%v rec=%d agg=%d rules=%d seq=%d prom=%v shad=%v dis=%.6f flags=%v acl=%016x",
		r.Skipped, r.Records, r.Aggregates, r.RulesMined, r.Seq, r.Promoted,
		r.Shadowed, r.Disagreement, r.Flagged, h.Sum64())
}

func roundsKey(rounds []*Round) string {
	var b strings.Builder
	for _, r := range rounds {
		b.WriteString(roundKey(r))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestHotSwapEquivalence is the acceptance gate: a registry-backed pipeline
// (every round publishes a versioned bundle, promotion re-loads it from disk
// and hot-swaps the champion pointer) must produce bit-identical rounds —
// same verdicts, same ACL bytes, same sequence numbers — as the plain
// in-process pipeline.
func TestHotSwapEquivalence(t *testing.T) {
	prof := lcProfile()
	inproc := NewPipeline(PipelineConfig{Seed: prof.Seed, MinTrainRecords: 64})
	ref := driveRounds(t, inproc, 12, 3, nil)

	reg := lcRegistry(t)
	backed := NewPipeline(PipelineConfig{Seed: prof.Seed, MinTrainRecords: 64, Registry: reg})
	got := driveRounds(t, backed, 12, 3, nil)

	if want, have := roundsKey(ref), roundsKey(got); want != have {
		t.Errorf("registry-backed rounds diverge from in-process rounds:\n--- in-process\n%s--- registry\n%s", want, have)
	}
	// The registry's on-disk champion is the model that served the last round.
	m, _, err := reg.Champion()
	if err != nil {
		t.Fatal(err)
	}
	seq, id := backed.ActiveModel()
	if m.ID != id || m.Seq != seq {
		t.Errorf("registry champion (%s, %d) != serving model (%s, %d)", m.ID, m.Seq, id, seq)
	}
	if got[len(got)-1].Seq != seq {
		t.Errorf("last round seq %d != active seq %d", got[len(got)-1].Seq, seq)
	}
	// Every round promoted (no shadow): seq counts 1..n.
	for i, r := range got {
		if !r.Promoted || r.Seq != uint64(i+1) {
			t.Errorf("round %d: promoted=%v seq=%d", i, r.Promoted, r.Seq)
		}
	}
}

// TestShadowPromoteChallengerMidRun pins the champion (auto-promotion
// disabled), promotes the standing challenger explicitly mid-run, and
// requires the registry-backed run to match the in-process shadow run
// bit-for-bit — including across the promotion boundary.
func TestShadowPromoteChallengerMidRun(t *testing.T) {
	prof := lcProfile()
	run := func(reg *registry.Registry) ([]*Round, *Pipeline) {
		p := NewPipeline(PipelineConfig{
			Seed:            prof.Seed,
			MinTrainRecords: 64,
			Registry:        reg,
			Shadow:          true,
			Promotion:       PromotionPolicy{MaxDisagreement: -1}, // operator-only promotion
		})
		rounds := driveRounds(t, p, 18, 3, func(m int64) {
			if m == 10 { // between rounds 3 and 4
				if err := p.PromoteChallenger(context.Background()); err != nil {
					t.Fatalf("promote at minute %d: %v", m, err)
				}
			}
		})
		return rounds, p
	}

	ref, inproc := run(nil)
	reg := lcRegistry(t)
	got, backed := run(reg)

	if want, have := roundsKey(ref), roundsKey(got); want != have {
		t.Errorf("shadow runs diverge:\n--- in-process\n%s--- registry\n%s", want, have)
	}

	// Round 1 promotes (nothing to shadow against); rounds 2-3 serve model 1
	// and shadow the fresh challenger; the explicit promotion installs model
	// 3 before round 4; rounds 4-6 serve it and keep shadowing.
	for i, r := range ref {
		switch {
		case i == 0:
			if !r.Promoted || r.Seq != 1 || r.Shadowed {
				t.Errorf("round 1: %+v", r)
			}
		case i < 3:
			if r.Promoted || r.Seq != 1 || !r.Shadowed {
				t.Errorf("round %d should shadow under champion 1: seq=%d prom=%v shad=%v", i+1, r.Seq, r.Promoted, r.Shadowed)
			}
		default:
			if r.Seq != 3 || !r.Shadowed {
				t.Errorf("round %d should serve promoted challenger 3: seq=%d shad=%v", i+1, r.Seq, r.Shadowed)
			}
		}
	}

	// Both pipelines agree on who serves; the registry's champion pointer
	// followed the explicit promotion.
	iSeq, _ := inproc.ActiveModel()
	bSeq, bID := backed.ActiveModel()
	if iSeq != bSeq {
		t.Errorf("active seq: in-process %d, registry %d", iSeq, bSeq)
	}
	m, _, err := reg.Champion()
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != bID {
		t.Errorf("registry champion %s != serving %s", m.ID, bID)
	}
}

// TestShadowAutoPromotion verifies the policy gate: a challenger whose
// cumulative disagreement stays under MaxDisagreement auto-promotes after
// ShadowRounds, so the sequence keeps advancing without operator action.
// (The first champion trains on a tiny window and disagrees ~50% with its
// better-trained challengers, so the strict default 2% gate would — by
// design — hold it forever; the test widens the gate to see the promotion
// machinery fire.)
func TestShadowAutoPromotion(t *testing.T) {
	prof := lcProfile()
	p := NewPipeline(PipelineConfig{
		Seed: prof.Seed, MinTrainRecords: 64,
		Shadow:    true,
		Promotion: PromotionPolicy{MaxDisagreement: 0.55},
	})
	rounds := driveRounds(t, p, 15, 3, nil)
	if !rounds[0].Promoted {
		t.Fatal("first round must promote unconditionally")
	}
	promoted := 0
	for _, r := range rounds[1:] {
		if !r.Shadowed {
			t.Errorf("round %+v did not shadow", r)
		}
		if r.Promoted {
			promoted++
		}
	}
	if promoted == 0 {
		t.Error("no challenger auto-promoted despite agreeing models")
	}
	if seq, _ := p.ActiveModel(); seq < 2 {
		t.Errorf("active seq = %d, want advanced past 1", seq)
	}
}

// failAfterFS fails every write once armed; reads are untouched.
type failAfterFS struct {
	mu     sync.Mutex
	armed  bool
	inner  acl.OSFS
	failed int
}

func (f *failAfterFS) arm() {
	f.mu.Lock()
	f.armed = true
	f.mu.Unlock()
}

func (f *failAfterFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f.mu.Lock()
	armed := f.armed
	if armed {
		f.failed++
	}
	f.mu.Unlock()
	if armed {
		return fmt.Errorf("failfs: scripted write failure for %s", name)
	}
	return f.inner.WriteFile(name, data, perm)
}
func (f *failAfterFS) Rename(o, n string) error { return f.inner.Rename(o, n) }
func (f *failAfterFS) Remove(n string) error    { return f.inner.Remove(n) }

// TestPublishFailureKeepsChampion scripts a registry outage after the first
// publish: later rounds must keep serving (and ACL-writing from) the
// last-good champion, count the failures, and never bump the version.
func TestPublishFailureKeepsChampion(t *testing.T) {
	fs := &failAfterFS{}
	var failures int
	reg, err := registry.Open(t.TempDir(), registry.Options{
		FS:    fs,
		Clock: func() time.Time { return time.Unix(lcStart*60, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.Writer().Backoff = lcBackoff()
	reg.Metrics = &registry.Metrics{PublishFailures: func() { failures++ }}

	prof := lcProfile()
	p := NewPipeline(PipelineConfig{Seed: prof.Seed, MinTrainRecords: 64, Registry: reg})
	rounds := driveRounds(t, p, 12, 3, func(m int64) {
		if m == 4 { // after round 1, before round 2
			fs.arm()
		}
	})

	if !rounds[0].Promoted || rounds[0].Seq != 1 {
		t.Fatalf("round 1: %+v", rounds[0])
	}
	for i, r := range rounds[1:] {
		if r.Promoted || r.Seq != 1 {
			t.Errorf("round %d promoted through a dead registry: seq=%d prom=%v", i+2, r.Seq, r.Promoted)
		}
		if r.ACLText == "" {
			t.Errorf("round %d produced no ACL while degraded", i+2)
		}
	}
	if failures == 0 {
		t.Error("publish failures not counted")
	}
	if seq, _ := p.ActiveModel(); seq != 1 {
		t.Errorf("active seq = %d, want last-good 1", seq)
	}
	// The registry still holds the last-good champion on disk.
	m, _, err := reg.Champion()
	if err != nil {
		t.Fatalf("champion lost during outage: %v", err)
	}
	if m.Seq != 1 {
		t.Errorf("on-disk champion seq = %d", m.Seq)
	}
}

// TestImportClassifierLifecycle routes a classifier-only bundle through the
// production import path: it shadows as a challenger, re-binds to the local
// WoE snapshot at promotion (§6.4), and serves after PromoteChallenger.
func TestImportClassifierLifecycle(t *testing.T) {
	prof := lcProfile()
	ctx := context.Background()

	// Source vantage point trains and exports its trees (not its encoder).
	src := NewPipeline(PipelineConfig{Seed: prof.Seed, MinTrainRecords: 64})
	driveRounds(t, src, 6, 3, nil)
	var export bytes.Buffer
	if err := src.Scrubber().SaveClassifierOnly(&export); err != nil {
		t.Fatal(err)
	}

	// Destination refuses a full bundle outright.
	dst := NewPipeline(PipelineConfig{
		Seed: prof.Seed, MinTrainRecords: 64,
		Shadow:    true,
		Promotion: PromotionPolicy{MaxDisagreement: -1},
	})
	var full bytes.Buffer
	if err := src.Scrubber().Save(&full); err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportClassifier(ctx, full.Bytes()); err == nil {
		t.Fatal("full bundle accepted by ImportClassifier")
	}

	// Train locally first, then import: the transfer shadows the local champion.
	rounds := driveRounds(t, dst, 6, 3, nil)
	if err := dst.ImportClassifier(ctx, export.Bytes()); err != nil {
		t.Fatal(err)
	}
	chSeq, _ := dst.Challenger()
	if chSeq == 0 {
		t.Fatal("import installed no challenger")
	}
	more := driveRoundsFrom(t, dst, lcStart+6, 3, 3, nil)
	if !more[0].Shadowed {
		t.Error("imported challenger not shadow-scored")
	}
	if seq, _ := dst.Challenger(); seq != chSeq {
		t.Errorf("local candidate evicted the imported challenger: %d != %d", seq, chSeq)
	}
	if err := dst.PromoteChallenger(ctx); err != nil {
		t.Fatal(err)
	}
	if seq, _ := dst.ActiveModel(); seq != chSeq {
		t.Errorf("active seq %d != imported challenger seq %d", seq, chSeq)
	}
	// The re-bound import serves the next rounds without error.
	served := driveRoundsFrom(t, dst, lcStart+9, 3, 3, nil)
	if served[0].Seq != chSeq {
		t.Errorf("round after promotion served seq %d, want %d", served[0].Seq, chSeq)
	}
	_ = rounds
}

// TestRegistryChampionServesOnRestart reopens a warm registry in a fresh
// pipeline: the on-disk champion takes the serving slot before any local
// training, and the sequence counter resumes rather than restarting.
func TestRegistryChampionServesOnRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *registry.Registry {
		reg, err := registry.Open(dir, registry.Options{
			Clock: func() time.Time { return time.Unix(lcStart*60, 0) },
		})
		if err != nil {
			t.Fatal(err)
		}
		reg.Writer().Backoff = lcBackoff()
		return reg
	}
	prof := lcProfile()
	first := NewPipeline(PipelineConfig{Seed: prof.Seed, MinTrainRecords: 64, Registry: open()})
	rounds := driveRounds(t, first, 9, 3, nil)
	wantSeq, wantID := first.ActiveModel()
	if wantSeq == 0 {
		t.Fatal("first pipeline never promoted")
	}

	second := NewPipeline(PipelineConfig{Seed: prof.Seed, MinTrainRecords: 64, Registry: open()})
	if restored, err := second.RestoreCheckpoint(); err != nil || restored {
		t.Fatalf("restore: %v (restored=%v, no checkpoint file exists)", err, restored)
	}
	if !second.Trained() {
		t.Fatal("registry champion did not flip readiness")
	}
	if seq, id := second.ActiveModel(); seq != wantSeq || id != wantID {
		t.Errorf("restored champion (%d, %s), want (%d, %s)", seq, id, wantSeq, wantID)
	}
	// The next trained round continues the version count past the restored
	// one. The traffic must genuinely differ: the generator's per-minute
	// output is minute-relative, so replaying the same profile retrains a
	// bit-identical model and the content-addressed Publish idempotently
	// returns the existing version instead of burning a new one.
	prof2 := lcProfile()
	prof2.AttackFlowsPerMin = 32
	next := driveProfileRounds(t, second, prof2, lcStart+9, 6, 6, nil)
	if next[0].Seq != wantSeq+1 {
		t.Errorf("post-restart round seq = %d, want %d", next[0].Seq, wantSeq+1)
	}
	_ = rounds
}

// TestLifecycleMetricsExposed checks that the drift and lifecycle gauges
// reach the Prometheus exposition with live values.
func TestLifecycleMetricsExposed(t *testing.T) {
	reg := obs.NewRegistry()
	prof := lcProfile()
	p := NewPipeline(PipelineConfig{
		Seed: prof.Seed, MinTrainRecords: 64,
		Registry: lcRegistry(t),
		Shadow:   true,
		Metrics:  reg,
	})
	driveRounds(t, p, 12, 3, nil)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, name := range []string{
		"ixps_model_active_seq",
		"ixps_model_promotions_total",
		"ixps_registry_publishes_total",
		"ixps_drift_feature_psi_mean",
		"ixps_drift_feature_psi_max",
		"ixps_drift_score_psi",
		"ixps_drift_retrain_recommended",
		"ixps_shadow_disagreement_ratio",
		"ixps_shadow_scored_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	if !strings.Contains(text, "ixps_model_promotions_total") {
		t.Error("promotions counter missing")
	}
	// Active seq must be a positive number.
	if strings.Contains(text, "ixps_model_active_seq 0\n") {
		t.Error("active seq still 0 after promotions")
	}
}

// TestConcurrentLifecycleAccess hammers the lock-free read paths while
// training rounds and promotions mutate the serving state. Run under -race
// this proves the hot swap needs no ingest pause.
func TestConcurrentLifecycleAccess(t *testing.T) {
	prof := lcProfile()
	p := NewPipeline(PipelineConfig{
		Seed: prof.Seed, MinTrainRecords: 64,
		Shadow:    true,
		Promotion: PromotionPolicy{MaxDisagreement: -1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader: the serving path's view
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			p.ActiveModel()
			p.Challenger()
			p.DriftStats()
			p.Trained()
		}
	}()

	gen := synth.NewGenerator(prof)
	var buf []synth.Flow
	for m := int64(0); m < 12; m++ {
		abs := lcStart + m
		buf = gen.GenerateMinute(abs, buf[:0])
		p.EmitBatch(synth.Records(buf))
		if (m+1)%3 == 0 {
			// Wait for the queue to drain so rounds see real data.
			if err := p.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := p.TrainRound(ctx, (abs+1)*60); err != nil {
				t.Fatal(err)
			}
			if _, id := p.Challenger(); id == "" {
				// Promote whatever challenger is standing, concurrently with
				// the readers.
				_ = p.PromoteChallenger(ctx)
			}
		}
	}
	close(done)
	wg.Wait()
	p.Stop()
	if !p.Trained() {
		t.Fatal("pipeline never trained")
	}
}

// benchModel trains one scrubber on the lifecycle profile and returns it
// with the aggregates of its final window.
func benchModel(b *testing.B) (*core.Scrubber, []*features.Aggregate) {
	b.Helper()
	prof := lcProfile()
	g := synth.NewGenerator(prof)
	flows := g.Generate(lcStart, lcStart+15)
	bal, _ := balance.Flows(prof.Seed, flows)
	recs := synth.Records(bal)
	s := core.New(core.DefaultConfig())
	if _, err := s.MineRules(recs); err != nil {
		b.Fatal(err)
	}
	aggs := s.Aggregate(recs, nil)
	if err := s.Fit(recs, aggs); err != nil {
		b.Fatal(err)
	}
	return s, aggs
}

// frozenCopy round-trips a scrubber through its bundle, as promotion does.
func frozenCopy(b *testing.B, s *core.Scrubber) *core.Scrubber {
	b.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		b.Fatal(err)
	}
	c, err := core.Load(&buf)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkHotSwap measures the champion pointer flip — the full promotion
// of an already-built candidate, registry excluded (that cost is Publish's).
func BenchmarkHotSwap(b *testing.B) {
	s, aggs := benchModel(b)
	prof := lcProfile()
	p := NewPipeline(PipelineConfig{Seed: prof.Seed})
	pred, x, err := scoreAggs(s, aggs)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := drift.NewReference(x, pred, drift.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cands := [2]*served{
		{s: frozenCopy(b, s), seq: 1, ref: ref},
		{s: frozenCopy(b, s), seq: 2, ref: ref},
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.lifeMu.Lock()
		p.promoteLocked(ctx, cands[i%2])
		p.lifeMu.Unlock()
	}
}

// BenchmarkScoringChampionOnly is the per-round serving cost without a
// challenger: encode once, predict once.
func BenchmarkScoringChampionOnly(b *testing.B) {
	s, aggs := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := scoreAggs(s, aggs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoringWithShadow adds challenger shadow scoring on the shared
// encoded matrix. The acceptance bound is < 2x BenchmarkScoringChampionOnly:
// the encode is shared, so shadowing costs one extra tree walk, not a
// second feature encoding.
func BenchmarkScoringWithShadow(b *testing.B) {
	s, aggs := benchModel(b)
	ch := frozenCopy(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, x, err := scoreAggs(s, aggs)
		if err != nil {
			b.Fatal(err)
		}
		challPred, err := ch.PredictEncoded(x)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for j := range challPred {
			if challPred[j] != pred[j] {
				n++
			}
		}
		_ = n
	}
}

// BenchmarkPSIUpdate is the drift monitor's per-round cost on a real encoded
// window: feature PSI accumulation plus score counts.
func BenchmarkPSIUpdate(b *testing.B) {
	s, aggs := benchModel(b)
	pred, x, err := scoreAggs(s, aggs)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := drift.NewReference(x, pred, drift.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m := drift.NewMonitor(drift.DefaultConfig())
	m.SetReference(ref)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ObserveFeatures(x)
		m.ObserveScores(pred)
	}
}
