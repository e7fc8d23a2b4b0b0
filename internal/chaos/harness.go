package chaos

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/bgp"
	"github.com/ixp-scrubber/ixpscrubber/internal/ixpsim"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
	"github.com/ixp-scrubber/ixpscrubber/internal/par"
	modelreg "github.com/ixp-scrubber/ixpscrubber/internal/registry"
	"github.com/ixp-scrubber/ixpscrubber/internal/segment"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// samplesPerDatagram fixes both the sFlow export batch and the collector's
// EmitBatch size. Keeping them equal makes batch boundaries a pure
// function of the injected stream — every full datagram flushes exactly
// one batch — which is what makes queue drop decisions under backpressure
// reproducible run over run.
const samplesPerDatagram = 16

// DefaultStartMin anchors simulated time for scenarios that leave StartMin
// zero (2021-01-01 UTC in unix minutes).
const DefaultStartMin = 26_830_080

// Scenario scripts one deterministic chaos run. The zero value of every
// fault field means "healthy"; a scenario turns on the faults it is about.
// All minute fields are relative to the start of the run.
type Scenario struct {
	Name string
	// Profile drives the traffic generator; zero value means DefaultProfile.
	Profile synth.Profile
	// StartMin is the absolute simulated start (unix minutes); 0 means a
	// fixed 2021 epoch.
	StartMin int64
	// Minutes is the number of simulated minutes to run.
	Minutes int64
	// TrainAt lists the minutes (relative) after which a training round runs.
	TrainAt []int64
	// SkipTraffic replays only the BGP events of minutes [0, SkipTraffic):
	// no datagrams are injected and no settling happens. The restart
	// scenario uses it to rebuild member desired state after a full-stack
	// crash, the way real members re-announce active blackholes.
	SkipTraffic int64

	// QueueCap and Drop configure the ingest queue (defaults: 64, Block).
	QueueCap int
	Drop     netflow.DropPolicy

	// DupTruncate follows every valid datagram with a truncated copy;
	// DupGarbage follows it with a non-sFlow garbage datagram. Both must be
	// rejected without disturbing the record stream.
	DupTruncate bool
	DupGarbage  bool
	// SocketErrAt injects a fatal read error into the collector socket
	// before those minutes; the listener's supervisor must replace it.
	SocketErrAt []int64
	// KillBGPAt drops the member's BGP session before those minutes; the
	// persistent session must reconnect and replay its desired state.
	KillBGPAt []int64
	// WithdrawStorm announces and immediately withdraws this many decoy
	// prefixes (198.19.0.0/16, outside the traffic ranges) every minute.
	WithdrawStorm int
	// SkewAt re-injects each of those minutes' last datagram with the
	// exporter clock rewound into the previous minute: the records must be
	// counted late and dropped, never retroactively balanced.
	SkewAt []int64
	// StuckFrom..StuckTo (inclusive, active when StuckTo > 0) closes the
	// consumer gate: the queue backs up and exercises its drop policy.
	StuckFrom, StuckTo int64
	// PanicAt arms a one-shot panic in the collector's label hook before
	// those minutes; the first datagram of the minute is sacrificed.
	PanicAt []int64
	// FlakyWrites tears the first two of every three ACL/checkpoint file
	// writes; publishes must retry through and stay atomic.
	FlakyWrites bool

	// Checkpoint persists pipeline state after every round; Restore starts
	// the pipeline from the checkpoint left in the work dir.
	Checkpoint bool
	Restore    bool

	// Registry versions every trained model in <dir>/registry; promotions
	// flip the on-disk champion pointer and what serves is the re-loaded
	// bundle. A registry-backed run must be bit-identical to the in-process
	// reference.
	Registry bool
	// Shadow holds newly trained models as challengers (auto-promotion
	// disabled, so PromoteAt is the only promotion path and the script stays
	// exact).
	Shadow bool
	// PromoteAt promotes the standing challenger before those minutes; a
	// scripted minute with no challenger standing fails the run.
	PromoteAt []int64
	// RegistryOutageAt, when > 0, tears every registry write from that
	// minute on — a persistent model-store outage. Publishes fail for good;
	// the last-good champion must keep serving and ACL output must continue.
	RegistryOutageAt int64

	// SketchBudget, when > 0, runs per-minute aggregation through the
	// bounded-memory sketch path with that relative exactness budget. The
	// sketch path is deterministic, so sketch scenarios replay exactly like
	// exact ones.
	SketchBudget float64

	// Dropper puts the compiled mitigation fast path in front of the
	// ingest queue: every training round compiles the champion's verdicts
	// and hot-swaps them into the match stage, so later minutes' matching
	// records are dropped before the queue. Compilation is deterministic,
	// so dropper scenarios replay exactly — against dropper-enabled
	// references only, since dropping reshapes the training stream.
	Dropper bool
}

// RoundDigest summarizes one training round for comparison.
type RoundDigest struct {
	Minute     int64 // relative minute the round ran after
	Skipped    bool
	Records    int
	Aggregates int
	RulesMined int
	Flagged    []string
	ACLDigest  uint64
	// Lifecycle: which model version served the round, and whether it was
	// freshly promoted or a challenger was shadow-scored alongside it.
	Seq      uint64
	Promoted bool
	Shadowed bool
}

// Outcome is everything a scenario run produced, reduced to comparable
// values. Two runs of the same scenario must produce identical outcomes
// (modulo the Metrics text, which contains wall-clock histograms).
type Outcome struct {
	// Digests maps absolute minute -> chained digest of the records the
	// balancer kept for that minute, in emission order.
	Digests map[int64]uint64
	Kept    uint64
	Rounds  []RoundDigest

	// Pipeline counters.
	Ingested       uint64
	Late           uint64
	DroppedBatches uint64
	DroppedRecords uint64

	// Collector counters.
	Datagrams  uint64
	Samples    uint64
	Records    uint64
	Truncated  uint64
	DecodeErrs uint64
	Panics     uint64

	// Injection accounting (valid datagrams/samples only).
	SentDatagrams uint64
	SentSamples   uint64

	// Fault-path counters.
	Reconnects        uint64
	DialFailures      uint64
	SendFailures      uint64
	CollectorRestarts uint64
	WriterRetries     uint64
	WriterWrites      uint64
	TornWrites        uint64

	// Model-registry accounting (zero when the scenario has no registry).
	RegistryVersions    int    // committed versions visible at run end
	RegistryChampionSeq uint64 // seq the on-disk champion resolves to
	RegistryTorn        uint64 // writes torn by the scripted outage

	// Drop-stage accounting (zero when the scenario has no dropper).
	DropperEvaluated uint64
	DropperDropped   uint64
	DropperSwaps     uint64
	DropperRules     int

	// Blackholes is the registry's distinct-prefix count (marker included).
	Blackholes int
	// ACLFile is the content of the published ACL file at run end.
	ACLFile string
	// CheckpointOK reports a non-empty checkpoint file at run end.
	CheckpointOK bool

	// Metrics is the rendered Prometheus exposition; excluded from Key.
	Metrics string
}

// Key renders every deterministic field; equal keys mean equal runs.
func (o *Outcome) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nkept=%d ingested=%d late=%d dropB=%d dropR=%d\n",
		o.digestKey(), o.Kept, o.Ingested, o.Late, o.DroppedBatches, o.DroppedRecords)
	fmt.Fprintf(&b, "col: dg=%d sm=%d rec=%d trunc=%d decerr=%d panics=%d restarts=%d\n",
		o.Datagrams, o.Samples, o.Records, o.Truncated, o.DecodeErrs, o.Panics, o.CollectorRestarts)
	fmt.Fprintf(&b, "sent: dg=%d sm=%d\n", o.SentDatagrams, o.SentSamples)
	fmt.Fprintf(&b, "bgp: reconn=%d dialfail=%d sendfail=%d blackholes=%d\n",
		o.Reconnects, o.DialFailures, o.SendFailures, o.Blackholes)
	fmt.Fprintf(&b, "writer: writes=%d retries=%d torn=%d ckpt=%v\n",
		o.WriterWrites, o.WriterRetries, o.TornWrites, o.CheckpointOK)
	fmt.Fprintf(&b, "modelreg: versions=%d champion=%d torn=%d\n",
		o.RegistryVersions, o.RegistryChampionSeq, o.RegistryTorn)
	fmt.Fprintf(&b, "dropper: eval=%d dropped=%d swaps=%d rules=%d\n",
		o.DropperEvaluated, o.DropperDropped, o.DropperSwaps, o.DropperRules)
	b.WriteString(o.ExactKey())
	return b.String()
}

// ExactKey renders only the output-invariant fields — the balanced-stream
// digests, the round results and the published ACL text. Scenarios whose
// faults must be invisible downstream compare this against the fault-free
// reference.
func (o *Outcome) ExactKey() string {
	var b strings.Builder
	b.WriteString(o.digestKey())
	for _, r := range o.Rounds {
		fmt.Fprintf(&b, "round@%d skip=%v rec=%d agg=%d rules=%d flagged=%v acl=%016x seq=%d prom=%v shad=%v\n",
			r.Minute, r.Skipped, r.Records, r.Aggregates, r.RulesMined, r.Flagged, r.ACLDigest,
			r.Seq, r.Promoted, r.Shadowed)
	}
	fmt.Fprintf(&b, "acl-file=%016x\n", netflow.FoldString(netflow.FNVOffset, o.ACLFile))
	return b.String()
}

// DigestsFrom renders the per-minute digests at or after the absolute
// minute from — what the restart test compares across the crash boundary.
func (o *Outcome) DigestsFrom(from int64) string {
	var b strings.Builder
	mins := make([]int64, 0, len(o.Digests))
	for m := range o.Digests {
		if m >= from {
			mins = append(mins, m)
		}
	}
	sort.Slice(mins, func(i, j int) bool { return mins[i] < mins[j] })
	for _, m := range mins {
		fmt.Fprintf(&b, "%d=%016x\n", m, o.Digests[m])
	}
	return b.String()
}

func (o *Outcome) digestKey() string { return o.DigestsFrom(0) }

// DefaultProfile is the small vantage point chaos scenarios replay: large
// enough that every minute carries blackholed episodes and training rounds
// flag targets, small enough that a scenario runs in well under a second.
func DefaultProfile() synth.Profile {
	p := synth.ProfileUS2()
	p.Name = "IXP-CHAOS"
	p.BenignFlowsPerMin = 96
	p.TargetIPs = 48
	p.BenignSrcIPs = 192
	p.EpisodeRatePerMin = 0.3
	p.EpisodeDurMeanMin = 6
	p.AttackFlowsPerMin = 24
	return p
}

// instantBackoff returns a deterministic backoff that never sleeps wall
// time: retry schedules stay exact while the harness runs at full speed.
func instantBackoff() *par.Backoff {
	return &par.Backoff{Base: time.Millisecond, Sleep: func(time.Duration) {}}
}

// errScriptedSocket is the fault SocketErrAt injects.
var errScriptedSocket = fmt.Errorf("chaos: scripted socket failure")

// Harness wires the full production pipeline — assembled by segment.New
// from an sflow -> scrubber config, exactly as scrubberd assembles it — to
// scripted fault injectors.
type Harness struct {
	sc  Scenario
	dir string

	ctx    context.Context
	cancel context.CancelFunc

	clock    Clock
	gate     Gate
	reg      *obs.Registry
	registry *bgp.Registry
	rsDone   chan error
	member   *bgp.Persistent
	seg      *segment.Pipeline
	pipe     *ixpsim.Pipeline // the scrubber segment's detection chain
	colStats *sflow.CollectorStats
	fs       *FlakyFS
	models   *modelreg.Registry
	outage   *OutageFS

	// conns hands replacement sockets to the listener's supervisor through
	// Env.ListenPacket. It is unbuffered, so a send completes only once the
	// supervisor has counted the previous socket's death and come back for
	// the next one.
	conns    chan *PacketConn
	cur      *PacketConn
	listens  atomic.Uint64 // Env.ListenPacket calls; all but the first are restarts
	armPanic atomic.Bool

	digMu   sync.Mutex
	digests map[int64]uint64
	kept    uint64

	// Injection accounting: a settled collector has emitted every sent
	// sample except those the scripted label panics discard.
	sentDatagrams uint64
	sentSamples   uint64
	panicLost     uint64
	lastDatagram  []byte
	lastSamples   int

	// Stall parking: when the consumer gate closes, the consumer is still
	// blocked inside the queue's Get. The first datagram of the stall window
	// wakes it; parkPending makes the injector wait until the consumer has
	// taken that batch and blocked at the gate. From then on the queue
	// accepts exactly its capacity and drops the rest — the drop set is a
	// pure function of injection order, not of goroutine scheduling.
	parkPending bool
}

// Run executes the scenario inside dir (ACL, checkpoint files) and returns
// its outcome. All scripted faults are injected at exact points of the
// lock-stepped replay, so the outcome is a pure function of the scenario.
func Run(parent context.Context, sc Scenario, dir string) (*Outcome, error) {
	if sc.Minutes <= 0 {
		return nil, fmt.Errorf("chaos: scenario %q has no minutes", sc.Name)
	}
	if sc.Profile.Name == "" {
		sc.Profile = DefaultProfile()
	}
	if sc.StartMin == 0 {
		sc.StartMin = DefaultStartMin
	}
	if sc.QueueCap <= 0 {
		sc.QueueCap = 64
	}
	h := &Harness{sc: sc, dir: dir, digests: map[int64]uint64{}}
	h.ctx, h.cancel = context.WithCancel(parent)
	defer h.cancel()
	if err := h.start(); err != nil {
		return nil, err
	}
	out, err := h.replay()
	stopErr := h.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}
	return out, nil
}

func (h *Harness) aclPath() string        { return filepath.Join(h.dir, "acl.txt") }
func (h *Harness) checkpointPath() string { return filepath.Join(h.dir, "checkpoint.json") }

// start brings up the full stack: route server, the segment pipeline
// (supervised sFlow listener -> scrubber), persistent member session.
func (h *Harness) start() error {
	sc := h.sc
	log := slog.New(slog.DiscardHandler)
	h.reg = obs.NewRegistry()
	h.clock.Set(sc.StartMin * 60)

	// Route server feeding the blackhole registry, on real TCP loopback.
	rsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("chaos: route server listen: %w", err)
	}
	h.registry = bgp.NewRegistry()
	rs := &bgp.RouteServer{
		ASN:      64999,
		RouterID: [4]byte{192, 0, 2, 254},
		Registry: h.registry,
		Clock:    h.clock.Now,
		Log:      log,
	}
	rs.RegisterMetrics(h.reg)
	h.rsDone = make(chan error, 1)
	go func() { h.rsDone <- rs.Serve(h.ctx, rsLn) }()

	// Pipeline: sflow listener -> scrubber (bounded queue -> balancer ->
	// window -> model -> ACL writer).
	ckpt := ""
	if sc.Checkpoint || sc.Restore {
		ckpt = h.checkpointPath()
	}
	if sc.FlakyWrites {
		h.fs = &FlakyFS{Fail: 2, Period: 3}
	}
	if sc.Registry {
		// The model registry shares the run's virtual clock (manifests stamp
		// deterministic times) and, when an outage is scripted, writes through
		// the trippable filesystem.
		var rfs acl.FS
		if sc.RegistryOutageAt > 0 {
			h.outage = &OutageFS{}
			rfs = h.outage
		}
		models, err := modelreg.Open(filepath.Join(h.dir, "registry"), modelreg.Options{
			FS:    rfs,
			Clock: func() time.Time { return time.Unix(h.clock.Now(), 0) },
			Log:   log,
		})
		if err != nil {
			return fmt.Errorf("chaos: model registry: %w", err)
		}
		models.Writer().Backoff = instantBackoff()
		h.models = models
	}
	scrub := map[string]any{
		"seed":        sc.Profile.Seed,
		"window":      24 * time.Hour,
		"queue-cap":   sc.QueueCap,
		"drop-policy": sc.Drop.String(),
		"min-train":   64,
		"acl":         h.aclPath(),
		"checkpoint":  ckpt,
		"shadow":      sc.Shadow,
		"drop":        sc.Dropper,
	}
	if sc.SketchBudget > 0 {
		scrub["sketch"] = true
		scrub["sketch-budget"] = sc.SketchBudget
	}
	cfg := &segment.Config{Name: "chaos:" + sc.Name, Pipeline: []segment.SegmentConfig{
		{Kind: "sflow", Params: map[string]any{"batch": samplesPerDatagram, "flush": 50 * time.Millisecond}},
		{Kind: "scrubber", Params: scrub},
	}}
	env := segment.Env{
		Log:          log,
		Metrics:      h.reg,
		Label:        h.label,
		Clock:        h.clock.Now,
		ListenPacket: h.listenPacket,
		PipelineHook: func(pc *ixpsim.PipelineConfig) {
			pc.KeepHook = h.keepHook
			pc.ConsumeGate = h.gate.Wait
			pc.Registry = h.models
			if sc.Shadow {
				// Scripted promotions only: with auto-promotion disabled,
				// PromoteAt is the single path a challenger takes to champion,
				// so which model serves each round is exact.
				pc.Promotion = ixpsim.PromotionPolicy{MaxDisagreement: -1}
			}
		},
	}
	if h.fs != nil {
		env.FS = h.fs
	}
	seg, err := segment.New(env, cfg)
	if err != nil {
		return fmt.Errorf("chaos: assembling pipeline: %w", err)
	}
	h.seg = seg
	h.pipe = seg.Scrubber()
	h.pipe.Writer().Backoff = instantBackoff()
	h.colStats = &seg.Instances()[0].(interface{ Collector() *sflow.Collector }).Collector().Stats
	h.conns = make(chan *PacketConn)
	h.cur = NewPacketConn()
	// Start restores the checkpoint (if any) before the consumer runs.
	if err := seg.Start(h.ctx); err != nil {
		return fmt.Errorf("chaos: starting pipeline: %w", err)
	}
	if sc.Restore && h.pipe.Ingested() == 0 {
		// A restored checkpoint carries the ingested count in; zero means
		// nothing was restored.
		h.seg.Close()
		return fmt.Errorf("chaos: no checkpoint to restore in %s", h.dir)
	}

	// Persistent member session announcing blackholes.
	h.member = &bgp.Persistent{
		Addr:    rsLn.Addr().String(),
		Local:   bgp.Open{ASN: 64501, HoldTime: 90, RouterID: [4]byte{192, 0, 2, 1}},
		Backoff: instantBackoff(),
		Log:     log,
	}
	h.member.RegisterMetrics(h.reg, "as64501")
	return h.member.Connect(h.ctx)
}

// label is the collector's blackhole labeler, armed to panic once where
// the scenario scripts a label fault.
func (h *Harness) label(ip netip.Addr, at int64) bool {
	if h.armPanic.CompareAndSwap(true, false) {
		panic("chaos: scripted label fault")
	}
	return h.registry.Covered(ip, at)
}

// listenPacket hands the listener its sockets: the first call gets the
// initial conn; every later one is a supervisor restart, counted, and
// blocks until breakSocket hands over the replacement.
func (h *Harness) listenPacket(string, string) (net.PacketConn, error) {
	if h.listens.Add(1) == 1 {
		return h.cur, nil
	}
	select {
	case conn := <-h.conns:
		return conn, nil
	case <-h.ctx.Done():
		return nil, h.ctx.Err()
	}
}

func (h *Harness) keepHook(r netflow.Record) {
	m := r.Timestamp / 60
	h.digMu.Lock()
	d, ok := h.digests[m]
	if !ok {
		d = netflow.FNVOffset
	}
	h.digests[m] = netflow.FoldRecord(d, &r)
	h.kept++
	h.digMu.Unlock()
}

func minuteSet(mins []int64) map[int64]bool {
	s := map[int64]bool{}
	for _, m := range mins {
		s[m] = true
	}
	return s
}

var nextHop = netip.MustParseAddr("192.0.2.1")

// replay drives the scenario minute by minute.
func (h *Harness) replay() (*Outcome, error) {
	sc := h.sc
	gen := synth.NewGenerator(sc.Profile)
	var (
		builder     packet.Builder
		seq         uint32
		buf         []synth.Flow
		samples     = make([]sflow.FlowSample, 0, samplesPerDatagram)
		headerArena = make([]byte, 0, samplesPerDatagram*synth.MaxSampledHeader)
		dgBuf       []byte
		exportSeq   uint32
	)
	trainAt := minuteSet(sc.TrainAt)
	promoteAt := minuteSet(sc.PromoteAt)
	socketErrAt := minuteSet(sc.SocketErrAt)
	killAt := minuteSet(sc.KillBGPAt)
	skewAt := minuteSet(sc.SkewAt)
	panicAt := minuteSet(sc.PanicAt)
	stuckActive := sc.StuckTo > 0
	out := &Outcome{}

	for m := int64(0); m < sc.Minutes; m++ {
		if err := h.ctx.Err(); err != nil {
			return nil, err
		}
		abs := sc.StartMin + m
		h.clock.Set(abs * 60)
		buf = gen.GenerateMinute(abs, buf[:0])

		// Scripted lifecycle events for this minute: the model-store outage
		// trips first (persistent — no recovery), then any scripted promotion
		// of the standing challenger.
		if h.outage != nil && m == sc.RegistryOutageAt {
			h.outage.Trip()
		}
		if promoteAt[m] {
			if err := h.pipe.PromoteChallenger(h.ctx); err != nil {
				return nil, fmt.Errorf("chaos: promoting challenger at minute %d: %w", m, err)
			}
		}

		// Consumer gate transitions happen on minute boundaries so the
		// backlog at the stall is an exact, replayable batch sequence.
		if stuckActive && m == sc.StuckFrom {
			h.parkPending = true
			h.gate.Close()
		}
		if stuckActive && m == sc.StuckTo+1 {
			// The released consumer works off the stall backlog before this
			// minute injects anything, so no later Put races it for space.
			h.gate.Open()
			if err := h.pipe.Drain(h.ctx); err != nil {
				return nil, fmt.Errorf("chaos: draining stall backlog: %w", err)
			}
		}
		stuck := stuckActive && m >= sc.StuckFrom && m <= sc.StuckTo

		// Scripted infrastructure faults for this minute.
		if socketErrAt[m] {
			if err := h.breakSocket(); err != nil {
				return nil, err
			}
		}
		if killAt[m] {
			h.member.Kill()
		}

		// BGP first, so the registry is current before samples are labeled.
		for i := 0; i < sc.WithdrawStorm; i++ {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 19, byte(i >> 8), byte(i)}), 32)
			if err := h.member.Announce(h.ctx, p, nextHop); err != nil {
				return nil, fmt.Errorf("chaos: storm announce: %w", err)
			}
			if err := h.member.Withdraw(h.ctx, p); err != nil {
				return nil, fmt.Errorf("chaos: storm withdraw: %w", err)
			}
		}
		for _, ev := range gen.Events() {
			var err error
			if ev.Announce {
				err = h.member.Announce(h.ctx, ev.Prefix, nextHop)
			} else {
				err = h.member.Withdraw(h.ctx, ev.Prefix)
			}
			if err != nil {
				return nil, fmt.Errorf("chaos: bgp event: %w", err)
			}
		}
		if err := h.syncBGP(abs); err != nil {
			return nil, err
		}

		if m < sc.SkipTraffic {
			// Restart recovery: BGP state only, no traffic.
			continue
		}

		if panicAt[m] {
			h.armPanic.Store(true)
			// The panicking datagram loses its whole sample batch: the
			// handler unwinds mid-conversion and the pending batch is
			// discarded, so neither its records nor its batch arrive.
			h.panicLost += samplesPerDatagram
		}

		// Inject the minute's traffic as wire-format sFlow datagrams.
		samples = samples[:0]
		headerArena = headerArena[:0]
		for i := range buf {
			f := &buf[i]
			frame, err := synth.FrameFor(f, &builder)
			if err != nil {
				return nil, err
			}
			start := len(headerArena)
			headerArena = append(headerArena, frame...)
			seq++
			samples = append(samples, sflow.FlowSample{
				Sequence:     seq,
				SourceID:     1,
				SamplingRate: f.SamplingRate,
				SamplePool:   seq * f.SamplingRate,
				FrameLength:  uint32(f.Bytes / f.Packets),
				Header:       headerArena[start:len(headerArena):len(headerArena)],
			})
			if len(samples) == samplesPerDatagram {
				exportSeq++
				dgBuf, err = h.sendDatagram(dgBuf, exportSeq, samples)
				if err != nil {
					return nil, err
				}
				samples = samples[:0]
				headerArena = headerArena[:0]
			}
		}
		if len(samples) > 0 {
			exportSeq++
			var err error
			dgBuf, err = h.sendDatagram(dgBuf, exportSeq, samples)
			if err != nil {
				return nil, err
			}
		}

		if err := h.settle(!stuck); err != nil {
			return nil, fmt.Errorf("chaos: minute %d: %w", m, err)
		}

		if skewAt[m] {
			if err := h.injectSkewed(abs); err != nil {
				return nil, err
			}
		}

		if trainAt[m] {
			round, err := h.pipe.TrainRound(h.ctx, abs*60)
			if err != nil {
				return nil, fmt.Errorf("chaos: training round at minute %d: %w", m, err)
			}
			rd := RoundDigest{
				Minute:     m,
				Skipped:    round.Skipped,
				Records:    round.Records,
				Aggregates: round.Aggregates,
				RulesMined: round.RulesMined,
				ACLDigest:  netflow.FoldString(netflow.FNVOffset, round.ACLText),
				Seq:        round.Seq,
				Promoted:   round.Promoted,
				Shadowed:   round.Shadowed,
			}
			for _, t := range round.Flagged {
				rd.Flagged = append(rd.Flagged, t.String())
			}
			out.Rounds = append(out.Rounds, rd)
		}
	}
	h.gate.Open() // never leave the consumer stalled at teardown
	if err := h.settle(true); err != nil {
		return nil, fmt.Errorf("chaos: final settle: %w", err)
	}
	h.collect(out)
	return out, nil
}

// sendDatagram encodes and injects one datagram, plus whatever corrupted
// duplicates the scenario scripts, and updates the settle accounting.
func (h *Harness) sendDatagram(dst []byte, seq uint32, samples []sflow.FlowSample) ([]byte, error) {
	d := sflow.Datagram{
		AgentAddress: netip.MustParseAddr("192.0.2.10"),
		Sequence:     seq,
		Uptime:       seq * 1000,
		Samples:      samples,
	}
	data, err := sflow.Append(dst[:0], &d)
	if err != nil {
		return dst, err
	}
	h.lastDatagram = append(h.lastDatagram[:0], data...)
	h.lastSamples = len(samples)
	h.cur.Inject(data)
	h.sentDatagrams++
	h.sentSamples += uint64(len(samples))
	if h.parkPending {
		// Stall window just opened: wait until the consumer has taken this
		// batch and parked at the gate, so every later Put races nothing.
		if err := h.gate.WaitParked(h.ctx); err != nil {
			return dst, fmt.Errorf("chaos: parking stalled consumer: %w", err)
		}
		h.parkPending = false
	}
	if h.sc.DupTruncate {
		h.cur.Inject(data[:len(data)-7])
	}
	if h.sc.DupGarbage {
		garbage := make([]byte, 40)
		for i := range garbage {
			garbage[i] = 0xFF
		}
		h.cur.Inject(garbage)
	}
	return data, nil
}

// injectSkewed replays the minute's last datagram with the exporter clock
// rewound 30 s into the previous minute. The duplicate records are stamped
// into an already-flushed bin: the balancer must count them late and drop
// them, leaving the balanced stream bit-identical to a run without skew.
func (h *Harness) injectSkewed(abs int64) error {
	if h.lastSamples == 0 {
		return fmt.Errorf("chaos: no datagram to skew")
	}
	h.clock.Set((abs-1)*60 + 30)
	h.cur.Inject(h.lastDatagram)
	h.sentDatagrams++
	h.sentSamples += uint64(h.lastSamples)
	err := h.settle(true)
	h.clock.Set(abs * 60)
	return err
}

// breakSocket kills the collector's socket with a scripted read error and
// hands the listener's supervisor a replacement, which it takes only after
// counting the restart.
func (h *Harness) breakSocket() error {
	h.cur.InjectError(errScriptedSocket)
	h.cur = NewPacketConn()
	select {
	case h.conns <- h.cur:
		return nil
	case <-h.ctx.Done():
		return fmt.Errorf("chaos: waiting for collector restart: %w", h.ctx.Err())
	}
}

// syncBGP round-trips the marker prefix through the persistent session so
// every prior update has been applied to the registry.
func (h *Harness) syncBGP(abs int64) error {
	return ixpsim.SyncBGPWith(h.ctx, h.registry, abs*60,
		func() error { return h.member.Announce(h.ctx, ixpsim.MarkerPrefix(), nextHop) },
		func() error { return h.member.Withdraw(h.ctx, ixpsim.MarkerPrefix()) })
}

// settle waits for the injected stream to drain: first the collector (its
// socket idle, so every datagram is decoded and emitted), then — unless
// the consumer is scripted as stuck — the queue and balancer, whose
// conservation Drain checks. Settling between minutes is what pins batch
// boundaries, and therefore drop decisions and RNG draws, to exactly one
// replayable sequence.
func (h *Harness) settle(waitQueue bool) error {
	if err := h.cur.WaitIdle(h.ctx); err != nil {
		return fmt.Errorf("settling collector: %w", err)
	}
	if waitQueue {
		if err := h.pipe.Drain(h.ctx); err != nil {
			return fmt.Errorf("settling queue: %w", err)
		}
	}
	if got, want := h.colStats.Records.Load(), h.sentSamples-h.panicLost; got != want {
		return fmt.Errorf("collector emitted %d records, want %d (%d samples sent, %d lost to scripted panics)",
			got, want, h.sentSamples, h.panicLost)
	}
	return nil
}

// collect snapshots every counter into the outcome.
func (h *Harness) collect(out *Outcome) {
	h.digMu.Lock()
	out.Digests = make(map[int64]uint64, len(h.digests))
	for m, d := range h.digests {
		out.Digests[m] = d
	}
	out.Kept = h.kept
	h.digMu.Unlock()

	out.Ingested = h.pipe.Ingested()
	out.Late = h.pipe.BalanceStats().Late
	qs := h.pipe.QueueStats()
	out.DroppedBatches = qs.DroppedBatches.Load()
	out.DroppedRecords = qs.DroppedRecords.Load()

	cs := h.colStats
	out.Datagrams = cs.Datagrams.Load()
	out.Samples = cs.Samples.Load()
	out.Records = cs.Records.Load()
	out.Truncated = cs.Truncated.Load()
	out.DecodeErrs = cs.DecodeErrs.Load()
	out.Panics = cs.Panics.Load()
	out.SentDatagrams = h.sentDatagrams
	out.SentSamples = h.sentSamples

	out.Reconnects = h.member.Reconnects()
	out.DialFailures = h.member.DialFailures()
	out.SendFailures = h.member.SendFailures()
	out.CollectorRestarts = h.listens.Load() - 1
	w := h.pipe.Writer()
	out.WriterRetries = w.Retries.Load()
	out.WriterWrites = w.Writes.Load()
	if h.fs != nil {
		out.TornWrites = h.fs.Torn.Load()
	}
	if h.outage != nil {
		out.RegistryTorn = h.outage.Torn.Load()
	}
	if h.models != nil {
		out.RegistryVersions = len(h.models.List())
		if m, _, err := h.models.Champion(); err == nil {
			out.RegistryChampionSeq = m.Seq
		}
	}
	if d := h.pipe.Dropper(); d != nil {
		st := d.Stats()
		out.DropperEvaluated = st.Evaluated
		out.DropperDropped = st.Dropped
		out.DropperSwaps = st.Swaps
		out.DropperRules = d.Program().Len()
	}
	out.Blackholes = h.registry.PrefixCount()
	if data, err := os.ReadFile(h.aclPath()); err == nil {
		out.ACLFile = string(data)
	}
	if h.sc.Checkpoint {
		if st, err := os.Stat(h.checkpointPath()); err == nil && st.Size() > 0 {
			out.CheckpointOK = true
		}
	}
	var b strings.Builder
	if err := h.reg.WritePrometheus(&b); err == nil {
		out.Metrics = b.String()
	}
}

// stop tears the stack down and waits for every goroutine.
func (h *Harness) stop() error {
	h.gate.Open()
	segErr := h.seg.Close()
	err := h.member.Close()
	h.cancel()
	rsErr := <-h.rsDone
	if segErr != nil {
		return fmt.Errorf("chaos: pipeline close: %w", segErr)
	}
	if err != nil && !isBenignClose(err) {
		return fmt.Errorf("chaos: member close: %w", err)
	}
	if rsErr != nil {
		return fmt.Errorf("chaos: route server: %w", rsErr)
	}
	return nil
}

func isBenignClose(err error) bool {
	return err == nil || strings.Contains(err.Error(), "use of closed network connection")
}
