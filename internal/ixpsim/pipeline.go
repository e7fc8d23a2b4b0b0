// Package ixpsim is the detection pipeline downstream of the flow
// collectors: a bounded ingest queue, the per-minute balancer, the sliding
// training window, the two-step model with its champion/challenger
// lifecycle, the optional inline dropper, and atomic ACL and checkpoint
// publication. The segment package's scrubber segment runs it; sockets,
// decoding and BGP labeling live upstream of it, in the segment inputs.
// SyncBGPWith is the BGP marker round-trip the chaos harness uses to settle
// the blackhole registry between simulated minutes.
package ixpsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/netip"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/core"
	"github.com/ixp-scrubber/ixpscrubber/internal/drift"
	"github.com/ixp-scrubber/ixpscrubber/internal/dropper"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/registry"
)

// PipelineConfig parameterizes the daemon-side processing chain downstream
// of the sockets.
type PipelineConfig struct {
	// Seed fixes the balancer's benign sampling (and therefore the whole
	// training stream for a given input).
	Seed uint64
	// Window is the sliding training window. Zero means 24h.
	Window time.Duration
	// QueueCap bounds the ingest queue in batches; 0 means 64.
	QueueCap int
	// DropPolicy says what a full ingest queue does to new batches.
	DropPolicy netflow.DropPolicy
	// MinTrainRecords skips training rounds below this many balanced
	// records; 0 means 100.
	MinTrainRecords int
	// ACLPath, when set, atomically publishes rendered ACLs there after
	// every successful round.
	ACLPath string
	// RulesPath, when set, exports the mined rule list there after every
	// successful round.
	RulesPath string
	// CheckpointPath, when set, atomically persists the pipeline state
	// (balancer, window, fitted model) there after every successful round,
	// and is what RestoreCheckpoint reads on startup.
	CheckpointPath string
	// FS handles ACL and checkpoint writes; nil means the real filesystem.
	// Fault injection scripts torn writes through this.
	FS acl.FS
	// Core configures the two-step model. Zero value means DefaultConfig.
	Core *core.Config
	// Clock returns unix seconds, driving window pruning; nil means
	// time.Now().Unix. Simulations inject virtual time here.
	Clock func() int64
	// KeepHook, when set, observes every record the balancer keeps into
	// the training window. The chaos harness digests the kept stream per
	// minute through this; it runs on the consumer goroutine, so it must
	// be fast.
	KeepHook func(netflow.Record)
	// ConsumeGate, when set, runs before each queue batch is consumed. A
	// gate that blocks models a stuck downstream consumer: the ingest
	// queue backs up behind it and exercises its drop policy.
	ConsumeGate func(ctx context.Context)
	// Metrics attaches the pipeline stages to an observability registry;
	// nil disables instrumentation.
	Metrics *obs.Registry
	Log     *slog.Logger

	// Registry, when set, versions every trained model: bundles publish
	// before they serve, promotions flip the on-disk champion pointer, and
	// old versions are garbage-collected. Without it the pipeline serves
	// in-process models exactly as before.
	Registry *registry.Registry
	// Shadow holds each newly trained model as a challenger instead of
	// promoting it immediately: the incumbent champion keeps writing ACLs
	// while the challenger is scored in shadow on the same windows, and
	// promotion follows Promotion (or an explicit PromoteChallenger). The
	// first trained model always promotes immediately — there is nothing
	// to shadow against.
	Shadow bool
	// Promotion tunes challenger auto-promotion; zero value means 1 shadow
	// round and ≤2% disagreement.
	Promotion PromotionPolicy
	// Drift sets the drift-monitor thresholds; zero value means
	// drift.DefaultConfig.
	Drift drift.Config
	// RegistryKeep is how many unpinned, non-champion versions registry GC
	// retains after each promotion; 0 means 3.
	RegistryKeep int

	// Drop enables the compiled mitigation fast path: an inline
	// dropper.Stage between the collectors and the ingest queue. After
	// every successful round the champion's ACL verdicts recompile into a
	// flat match program and hot-swap in without pausing ingest; records
	// whose first matching rule says drop never reach the balancer. The
	// compiled program rides the checkpoint, so a restarted pipeline
	// resumes dropping with its exact pre-crash rules.
	Drop bool
}

// Round reports one training round.
type Round struct {
	// Skipped is true when the window held too few records to train.
	Skipped bool
	// Records is the window size the round trained on.
	Records int
	// Aggregates is the number of per-target aggregates classified.
	Aggregates int
	// Flagged lists the targets classified as DDoS victims, sorted.
	Flagged []netip.Addr
	// ACLText is the rendered ACL file for the flagged targets.
	ACLText string
	// RulesMined is the mined (minimized) rule count.
	RulesMined int
	// Seq is the serving model's sequence number after this round.
	Seq uint64
	// Promoted is true when this round hot-swapped the champion.
	Promoted bool
	// Shadowed is true when a challenger was shadow-scored this round.
	Shadowed bool
	// Disagreement is the challenger's cumulative disagreement ratio after
	// this round (0 without a challenger).
	Disagreement float64
}

// Pipeline is the daemon's processing chain between the collector sockets
// and the ACL files: bounded ingest queue -> per-minute balancer -> sliding
// window -> two-step model -> atomic ACL publication. The segment
// package's scrubber segment runs it, so cmd/scrubberd and the chaos
// harness drive the identical production path.
//
// Failure behavior: a failed training round rolls the rule set back and
// keeps the previously fitted model serving (graceful degradation); ACL and
// checkpoint writes are atomic and retried with backoff.
type Pipeline struct {
	cfg   PipelineConfig
	queue *netflow.Queue

	balMu      sync.Mutex
	bal        *balance.Balancer[netflow.Record]
	balMetrics *balance.Metrics

	winMu  sync.Mutex
	window []netflow.Record

	// trainer is the mutable model: it accumulates rule history and refits
	// every round. What serves is champion — in the default configuration
	// the same object, with registry/shadow an immutable copy.
	trainer *core.Scrubber
	writer  *acl.Writer

	// lifeMu serializes lifecycle transitions (candidate adoption,
	// promotion, challenger swaps). The serving read path never takes it:
	// champion is an atomic pointer.
	lifeMu     sync.Mutex
	champion   atomic.Pointer[served]
	challenger atomic.Pointer[served]
	seq        atomic.Uint64
	monitor    *drift.Monitor
	lm         *lifecycleMetrics

	// shadowPred is the challenger's reusable verdict buffer: shadow
	// scoring runs every round under lifeMu, so one buffer serves all
	// rounds without per-round allocation.
	shadowPred []int

	tm       *trainMetrics
	ingested atomic.Uint64 // records through the balancer
	trained  atomic.Bool
	// Drain's conservation check: records this incarnation handed to
	// EmitBatch, and the ingested count a restored checkpoint carried in.
	offered          atomic.Uint64
	restoredIngested uint64

	// drop is the compiled mitigation stage in front of the queue; nil
	// unless cfg.Drop.
	drop *dropper.Stage

	wg sync.WaitGroup
}

// trainMetrics instruments the training loop and ACL output; nil disables
// everything.
type trainMetrics struct {
	rounds        *obs.Counter
	failures      *obs.Counter
	skipped       *obs.Counter
	duration      *obs.Histogram
	windowRecords *obs.Gauge
	flagged       *obs.Gauge
	aclWrites     *obs.Counter
	aclEntries    *obs.Gauge
	checkpoints   *obs.Counter
}

func newTrainMetrics(r *obs.Registry) *trainMetrics {
	return &trainMetrics{
		rounds: r.Counter("ixps_training_rounds_total",
			"Training rounds completed successfully."),
		failures: r.Counter("ixps_training_failures_total",
			"Training rounds that returned an error (last good model kept serving)."),
		skipped: r.Counter("ixps_training_skipped_total",
			"Training ticks skipped for lack of balanced records."),
		duration: r.Histogram("ixps_training_duration_seconds",
			"Wall time of one full training round (mine + fit + classify + ACLs).", nil),
		windowRecords: r.Gauge("ixps_training_window_records",
			"Balanced records inside the sliding training window."),
		flagged: r.Gauge("ixps_flagged_targets",
			"Targets flagged as DDoS victims by the last round."),
		aclWrites: r.Counter("ixps_acl_writes_total",
			"ACL files written (or printed) after training rounds."),
		aclEntries: r.Gauge("ixps_acl_entries",
			"ACL entries generated by the last round."),
		checkpoints: r.Counter("ixps_checkpoints_total",
			"Pipeline state checkpoints persisted."),
	}
}

// NewPipeline assembles the chain. Call Start to run the queue consumer,
// and TrainRound from the owner's training tick.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	if cfg.Window <= 0 {
		cfg.Window = 24 * time.Hour
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.MinTrainRecords <= 0 {
		cfg.MinTrainRecords = 100
	}
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().Unix() }
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	coreCfg := core.DefaultConfig()
	if cfg.Core != nil {
		coreCfg = *cfg.Core
	}
	cfg.Promotion = cfg.Promotion.withDefaults()
	p := &Pipeline{
		cfg:     cfg,
		queue:   netflow.NewQueue(cfg.QueueCap, cfg.DropPolicy),
		trainer: core.New(coreCfg),
		writer:  &acl.Writer{FS: cfg.FS, Log: cfg.Log},
		monitor: drift.NewMonitor(cfg.Drift),
	}
	p.bal = balance.ForRecords(cfg.Seed, p.keep)
	if cfg.Drop {
		p.drop = dropper.NewStage(func(b []netflow.Record) { p.queue.Put(b) })
	}
	if cfg.Metrics != nil {
		p.queue.RegisterMetrics(cfg.Metrics, "ingest")
		if p.drop != nil {
			p.drop.RegisterMetrics(cfg.Metrics)
		}
		p.balMetrics = balance.RegisterMetrics(cfg.Metrics)
		p.trainer.SetMetrics(core.RegisterMetrics(cfg.Metrics))
		p.tm = newTrainMetrics(cfg.Metrics)
		p.lm = newLifecycleMetrics(cfg.Metrics)
		if cfg.Registry != nil {
			cfg.Registry.Metrics = p.lm.registryMetrics()
		}
	}
	return p
}

func (p *Pipeline) keep(r netflow.Record) {
	p.winMu.Lock()
	p.window = append(p.window, r)
	p.winMu.Unlock()
	if p.cfg.KeepHook != nil {
		p.cfg.KeepHook(r)
	}
}

// Scrubber exposes the trainer model for inspection (rule export, bundles,
// classifier-only geographic export).
func (p *Pipeline) Scrubber() *core.Scrubber { return p.trainer }

// QueueStats exposes the ingest queue counters.
func (p *Pipeline) QueueStats() *netflow.QueueStats { return &p.queue.Stats }

// BalanceStats snapshots the balancer counters under its lock.
func (p *Pipeline) BalanceStats() balance.Stats {
	p.balMu.Lock()
	defer p.balMu.Unlock()
	return p.bal.Stats
}

// Writer exposes the ACL/checkpoint publisher (for retry counters).
func (p *Pipeline) Writer() *acl.Writer { return p.writer }

// Ingested returns how many records have passed through the balancer,
// including the count a restored checkpoint carried in.
func (p *Pipeline) Ingested() uint64 { return p.ingested.Load() }

// Trained reports whether a model is serving (readiness).
func (p *Pipeline) Trained() bool { return p.trained.Load() }

// EmitBatch enqueues one collector batch; it is the collector's EmitBatch
// hook. With the dropper enabled the batch first passes the compiled
// match program, which compacts dropped records out in place before the
// survivors enqueue. The queue copies what it accepts, so the collector
// may reuse its slice either way.
func (p *Pipeline) EmitBatch(recs []netflow.Record) {
	p.offered.Add(uint64(len(recs)))
	if p.drop != nil {
		p.drop.EmitBatch(recs)
		return
	}
	p.queue.Put(recs)
}

// Dropper exposes the compiled mitigation stage (nil unless cfg.Drop).
func (p *Pipeline) Dropper() *dropper.Stage { return p.drop }

// Start launches the queue consumer. The consumer exits when the context
// is canceled or the queue is closed (Stop).
func (p *Pipeline) Start(ctx context.Context) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			batch, ok := p.queue.Get(ctx)
			if !ok {
				return
			}
			if p.cfg.ConsumeGate != nil {
				p.cfg.ConsumeGate(ctx)
			}
			p.balMu.Lock()
			p.bal.AddBatch(batch)
			p.balMu.Unlock()
			p.ingested.Add(uint64(len(batch)))
		}
	}()
}

// Drain blocks until every record offered to EmitBatch before the call is
// balanced or counted as dropped — the ingest queue is empty and its
// consumer is parked back in Get — then checks this incarnation's
// conservation identity: offered = balanced + queue DroppedRecords +
// dropper Dropped. A mismatch is an uncounted loss; the error quotes the
// counters. A consumer held by ConsumeGate keeps Drain waiting.
func (p *Pipeline) Drain(ctx context.Context) error {
	if err := p.queue.WaitDrained(ctx); err != nil {
		return fmt.Errorf("ixpsim: draining ingest queue: %w", err)
	}
	offered := p.offered.Load()
	balanced := p.ingested.Load() - p.restoredIngested
	queueDropped := p.queue.Stats.DroppedRecords.Load()
	var dropperDropped uint64
	if p.drop != nil {
		dropperDropped = p.drop.Stats().Dropped
	}
	if offered != balanced+queueDropped+dropperDropped {
		return fmt.Errorf("ixpsim: drained pipeline lost records: offered %d != balanced %d + queue-dropped %d + dropper-dropped %d",
			offered, balanced, queueDropped, dropperDropped)
	}
	return nil
}

// Stop closes the ingest queue and waits for the consumer to drain it.
func (p *Pipeline) Stop() {
	p.queue.Close()
	p.wg.Wait()
}

// WindowRecords returns a copy of the current training window without
// flushing the balancer or pruning by age — a read-only snapshot. Cluster
// election scores imported candidates on it right after a training round,
// where it is exactly the window that round trained on.
func (p *Pipeline) WindowRecords() []netflow.Record {
	p.winMu.Lock()
	defer p.winMu.Unlock()
	return append([]netflow.Record(nil), p.window...)
}

// snapshotWindow flushes the balancer, prunes records older than the
// window, and returns a copy of what remains.
func (p *Pipeline) snapshotWindow(now int64) []netflow.Record {
	p.balMu.Lock()
	p.bal.Flush()
	p.balMetrics.Publish(&p.bal.Stats)
	p.balMu.Unlock()

	p.winMu.Lock()
	defer p.winMu.Unlock()
	cutoff := now - int64(p.cfg.Window/time.Second)
	keep := p.window[:0]
	for _, r := range p.window {
		if r.Timestamp >= cutoff {
			keep = append(keep, r)
		}
	}
	p.window = keep
	return append([]netflow.Record(nil), p.window...)
}

// TrainRound runs one full round at time now (unix seconds): flush and
// prune, mine rules, fit, classify, publish ACLs, checkpoint. On error the
// pipeline keeps serving its previous model and rule set.
func (p *Pipeline) TrainRound(ctx context.Context, now int64) (*Round, error) {
	start := time.Now()
	records := p.snapshotWindow(now)
	if p.tm != nil {
		p.tm.windowRecords.Set(float64(len(records)))
	}
	if len(records) < p.cfg.MinTrainRecords {
		if p.tm != nil {
			p.tm.skipped.Inc()
		}
		p.cfg.Log.Info("not enough balanced records to train yet", "records", len(records))
		return &Round{Skipped: true, Records: len(records)}, nil
	}

	round, err := p.trainAndClassify(ctx, records)
	if err != nil {
		if p.tm != nil {
			p.tm.failures.Inc()
		}
		return nil, err
	}
	// Flip trained before checkpointing: the checkpoint must carry the
	// model that was just fitted, including the cumulative rule-set history
	// a restarted pipeline needs to keep curating from.
	p.trained.Store(true)
	if p.cfg.CheckpointPath != "" {
		if err := p.SaveCheckpoint(ctx); err != nil {
			// The round itself succeeded; a failed checkpoint degrades
			// restart fidelity, not serving.
			p.cfg.Log.Error("checkpoint failed", "err", err)
		} else if p.tm != nil {
			p.tm.checkpoints.Inc()
		}
	}
	if p.tm != nil {
		p.tm.rounds.Inc()
		p.tm.duration.ObserveSince(start)
	}
	p.cfg.Log.Info("training round complete",
		"records", round.Records,
		"aggregates", round.Aggregates,
		"rules_mined", round.RulesMined,
		"flagged_targets", len(round.Flagged),
		"took", time.Since(start).Round(time.Millisecond))
	return round, nil
}

func (p *Pipeline) trainAndClassify(ctx context.Context, records []netflow.Record) (*Round, error) {
	s := p.trainer
	// Rule mining replaces the trainer's rule set before Fit gets a
	// chance to fail; roll it back on any error so a bad round leaves the
	// old rules serving alongside the old model.
	oldRules := s.Rules()
	rep, err := s.MineRules(records)
	if err != nil {
		return nil, err
	}
	aggs := s.Aggregate(records, nil)
	if err := s.Fit(records, aggs); err != nil {
		s.SetRules(oldRules)
		return nil, err
	}
	// One encoded matrix feeds the candidate's verdicts, its frozen drift
	// reference, and challenger shadow scoring — encode once, score many.
	candPred, x, err := scoreAggs(s, aggs)
	if err != nil {
		s.SetRules(oldRules)
		return nil, err
	}

	// Lifecycle step: wrap the fitted trainer as an immutable candidate
	// (publishing to the registry when configured) and decide who serves.
	// A failed publish is graceful degradation, not a failed round: the
	// last-good champion keeps writing ACLs and the failure is counted.
	cand, candErr := p.buildCandidate(ctx, s, x, candPred, records)

	p.lifeMu.Lock()
	champ := p.champion.Load()
	promoted := false
	switch {
	case candErr != nil:
		p.cfg.Log.Error("candidate publish failed; champion keeps serving", "err", candErr)
		if champ == nil {
			// Nothing to fall back to: serve the in-process model without
			// registry backing rather than serving nothing.
			cand = &served{s: s, seq: p.nextSeq(nil)}
			if x != nil {
				if ref, rerr := drift.NewReference(x, candPred, p.cfg.Drift); rerr == nil {
					cand.ref = ref
				}
			}
			p.promoteLocked(ctx, cand)
			champ = cand
			promoted = true
		}
	case champ == nil || !p.cfg.Shadow:
		p.promoteLocked(ctx, cand)
		champ = cand
		promoted = true
	default:
		// Shadow mode with an incumbent: the new model challenges. An
		// imported transfer keeps its challenger slot — its shadow evaluation
		// spans rounds, and a locally trained candidate can always be rebuilt
		// next round.
		if cur := p.challenger.Load(); cur == nil || !cur.imported {
			p.challenger.Store(cand)
			p.cfg.Log.Info("model installed as challenger", "seq", cand.seq, "id", cand.id)
		}
	}

	// Champion verdicts are what reach the ACL writer. When the champion
	// is this round's candidate its verdicts are already computed on the
	// shared matrix; an older champion re-scores the window through its
	// own encoder (its view of the world, matching its drift reference).
	champPred, champX := candPred, x
	if champ != cand {
		var perr error
		champPred, champX, perr = scoreAggs(champ.s, aggs)
		if perr != nil {
			p.lifeMu.Unlock()
			return nil, fmt.Errorf("ixpsim: champion scoring: %w", perr)
		}
	}
	// The ACL is wholly the scoring champion's artifact — its verdicts,
	// its rules — even if a challenger promotes at the end of this round
	// (the promotion serves from the next round).
	aclModel := champ.s
	p.monitor.ObserveFeatures(champX)
	p.monitor.ObserveScores(champPred)

	// Shadow-score the standing challenger (a just-installed candidate or
	// an imported classifier) on the shared local encoding, then apply the
	// auto-promotion policy.
	shadowed := false
	disagreement := 0.0
	if ch := p.challenger.Load(); ch != nil && ch != champ && x != nil {
		disagreement = p.shadowScoreLocked(ch, x, champPred)
		shadowed = true
		pol := p.cfg.Promotion
		if ch.rounds >= pol.ShadowRounds && pol.MaxDisagreement >= 0 && disagreement <= pol.MaxDisagreement {
			p.promoteLocked(ctx, ch)
			p.challenger.Store(nil)
			promoted = true
			champ = ch
		}
	}
	seq := champ.seq
	p.lifeMu.Unlock()
	p.publishDriftMetrics()

	targetSet := map[netip.Addr]struct{}{}
	for i, a := range aggs {
		if champPred[i] == 1 {
			targetSet[a.Target] = struct{}{}
		}
	}
	// Sorted targets make the rendered ACL (and thus its digest) a pure
	// function of the classifications.
	targets := make([]netip.Addr, 0, len(targetSet))
	for t := range targetSet {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Compare(targets[j]) < 0 })

	entries := aclModel.GenerateACLs(targets, acl.ActionDrop)
	text := acl.RenderText(entries)
	if p.cfg.ACLPath != "" {
		if err := p.writer.Publish(ctx, p.cfg.ACLPath, []byte(text)); err != nil {
			return nil, err
		}
	}
	if p.tm != nil {
		p.tm.aclWrites.Inc()
		p.tm.aclEntries.Set(float64(len(entries)))
		p.tm.flagged.Set(float64(len(targets)))
	}
	if p.cfg.RulesPath != "" {
		var buf bytes.Buffer
		if err := s.Rules().Export(&buf); err != nil {
			return nil, err
		}
		if err := p.writer.Publish(ctx, p.cfg.RulesPath, buf.Bytes()); err != nil {
			return nil, err
		}
	}
	// Mitigation fast path: the verdicts that just published as ACL text
	// also compile into the flat match program and hot-swap in — an
	// atomic pointer store, so promotion → recompile → swap never pauses
	// ingest. Compilation is total (it cannot fail), and a swap on a
	// round that flagged nothing installs the empty program, withdrawing
	// the previous drops exactly like the ACL withdrawal it mirrors.
	if p.drop != nil {
		p.drop.Swap(dropper.Compile(dropper.FromEntries(entries)))
	}
	return &Round{
		Records:      len(records),
		Aggregates:   len(aggs),
		Flagged:      targets,
		ACLText:      text,
		RulesMined:   rep.RulesMinimized,
		Seq:          seq,
		Promoted:     promoted,
		Shadowed:     shadowed,
		Disagreement: disagreement,
	}, nil
}

// checkpointVersion guards the envelope layout.
const checkpointVersion = 1

// checkpointJSON is the pipeline's crash-recovery envelope: the balancer
// (RNG, in-progress bin, stats), the sliding window, and — once trained —
// the full model bundle. Restoring it resumes the training stream
// bit-for-bit; only batches still in the ingest queue at crash time are
// lost, which mirrors what UDP loses anyway.
type checkpointJSON struct {
	Version  int                            `json:"version"`
	Seed     uint64                         `json:"seed"`
	Ingested uint64                         `json:"ingested"`
	Balancer *balance.State[netflow.Record] `json:"balancer"`
	Window   []netflow.Record               `json:"window"`
	Trained  bool                           `json:"trained"`
	Bundle   json.RawMessage                `json:"bundle,omitempty"`
	// ModelSeq is the serving champion's sequence at checkpoint time, so a
	// restored pipeline resumes the version count instead of restarting at
	// 1 (additive; absent in pre-lifecycle checkpoints).
	ModelSeq uint64 `json:"model_seq,omitempty"`
	// DropProgram is the live drop program's rule list in DROP1 bytes
	// (additive; only with the dropper enabled). Restore recompiles it so
	// post-restart dropping is bit-identical to pre-crash.
	DropProgram []byte `json:"drop_program,omitempty"`
}

// SaveCheckpoint atomically persists the pipeline state to CheckpointPath.
// The queue consumer keeps running; the balancer and window are snapshotted
// under their locks. For bit-exact restore semantics, checkpoint at a
// quiescent point (the training tick, after the queue drained).
func (p *Pipeline) SaveCheckpoint(ctx context.Context) error {
	if p.cfg.CheckpointPath == "" {
		return errors.New("ixpsim: no checkpoint path configured")
	}
	cp := checkpointJSON{
		Version:  checkpointVersion,
		Seed:     p.cfg.Seed,
		Ingested: p.ingested.Load(),
		Trained:  p.trained.Load(),
	}
	if ch := p.champion.Load(); ch != nil {
		cp.ModelSeq = ch.seq
	}
	if p.drop != nil {
		if prog := p.drop.Program(); prog != nil && prog.Len() > 0 {
			cp.DropProgram = dropper.Marshal(prog.Rules())
		}
	}
	p.balMu.Lock()
	st, err := p.bal.Checkpoint()
	p.balMu.Unlock()
	if err != nil {
		return err
	}
	cp.Balancer = st
	p.winMu.Lock()
	cp.Window = append([]netflow.Record(nil), p.window...)
	p.winMu.Unlock()
	if cp.Trained {
		var buf bytes.Buffer
		if err := p.trainer.Save(&buf); err != nil {
			return fmt.Errorf("ixpsim: bundling model: %w", err)
		}
		cp.Bundle = buf.Bytes()
	}
	data, err := json.Marshal(&cp)
	if err != nil {
		return err
	}
	return p.writer.Publish(ctx, p.cfg.CheckpointPath, data)
}

// RestoreCheckpoint loads CheckpointPath, if present, and resumes from it:
// the balancer continues its RNG stream mid-bin, the window carries over,
// and the saved model serves immediately (readiness flips true). A missing
// file is not an error — the pipeline simply starts cold. With a registry
// configured, the registry's champion (last-good version) takes over the
// serving slot regardless of checkpoint state, so a warm registry serves
// even before the first local training round; the drift reference is
// rebuilt at the next promotion.
func (p *Pipeline) RestoreCheckpoint() (bool, error) {
	restored, err := p.restoreCheckpointFile()
	p.restoreChampionFromRegistry()
	return restored, err
}

func (p *Pipeline) restoreCheckpointFile() (bool, error) {
	if p.cfg.CheckpointPath == "" {
		return false, nil
	}
	data, err := os.ReadFile(p.cfg.CheckpointPath)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	var cp checkpointJSON
	if err := json.Unmarshal(data, &cp); err != nil {
		return false, fmt.Errorf("ixpsim: decoding checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return false, fmt.Errorf("ixpsim: unsupported checkpoint version %d", cp.Version)
	}
	p.balMu.Lock()
	err = p.bal.Restore(cp.Balancer)
	p.balMu.Unlock()
	if err != nil {
		return false, err
	}
	p.winMu.Lock()
	p.window = append(p.window[:0], cp.Window...)
	p.winMu.Unlock()
	p.ingested.Store(cp.Ingested)
	p.restoredIngested = cp.Ingested
	if p.drop != nil && len(cp.DropProgram) > 0 {
		rules, derr := dropper.Unmarshal(cp.DropProgram)
		if derr != nil {
			// A corrupt embedded program degrades to the empty program the
			// stage already serves; the next round recompiles from fresh
			// verdicts. Not a restore failure.
			p.cfg.Log.Error("checkpointed drop program unreadable; starting with none", "err", derr)
		} else {
			p.drop.Swap(dropper.Compile(rules))
		}
	}
	if cp.Trained {
		s, err := core.Load(bytes.NewReader(cp.Bundle))
		if err != nil {
			return false, fmt.Errorf("ixpsim: restoring model: %w", err)
		}
		if p.cfg.Metrics != nil {
			s.SetMetrics(core.RegisterMetrics(p.cfg.Metrics))
		}
		p.trainer = s
		// The restored model serves as champion at its checkpointed
		// sequence; the next trained round continues the count.
		seq := cp.ModelSeq
		if seq == 0 {
			seq = 1 // pre-lifecycle checkpoint
		}
		for {
			cur := p.seq.Load()
			if seq <= cur || p.seq.CompareAndSwap(cur, seq) {
				break
			}
		}
		p.lifeMu.Lock()
		p.champion.Store(&served{s: s, seq: seq})
		p.lifeMu.Unlock()
		if p.lm != nil {
			p.lm.activeSeq.Set(float64(seq))
		}
		p.trained.Store(true)
	}
	p.cfg.Log.Info("pipeline state restored",
		"window_records", len(cp.Window), "trained", cp.Trained)
	return true, nil
}
