package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"sort"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/core"
	"github.com/ixp-scrubber/ixpscrubber/internal/dropper"
	"github.com/ixp-scrubber/ixpscrubber/internal/features"
	"github.com/ixp-scrubber/ixpscrubber/internal/ixpsim"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one pass share Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// roundLayers is one training round split into the layers a replay on the
// round's own window measures. Times are in nanoseconds.
type roundLayers struct {
	total, snapshot, mine, aggregate, encode, fit, predict, generate, publish, compile int64
	// compileAlone is what compiling the round's verdicts costs when the
	// chain has no dropper; it is not part of the round.
	compileAlone int64

	rulesMined, aggregates, entries int
}

// sum is the attributed part of the round.
func (r *roundLayers) sum() int64 {
	return r.snapshot + r.mine + r.aggregate + r.encode + r.fit + r.predict + r.generate + r.publish + r.compile
}

// tracer records spans and per-layer measurements in a traced pass. A nil
// *tracer is the untraced run: every method is a no-op and every wrapper
// returns what it wraps.
type tracer struct {
	t0    time.Time
	spans []span
	run   int
	open  []int // open span IDs on the host goroutine

	replay *core.Scrubber // replays each round's layers; reset per pass
	rounds []roundLayers

	// Inline counters. The labeler runs on the collector goroutine only
	// and is read after the pipeline closed; publication runs in
	// TrainRound on the host goroutine.
	labelCalls, labelHits uint64
	publishNS             int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// startPass opens a new run ID and a fresh replay model.
func (t *tracer) startPass() {
	if t == nil {
		return
	}
	t.run++
	t.replay = core.New(core.DefaultConfig())
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: now})
	t.open = append(t.open, id)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return s.End - s.Start
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, f func()) int64 {
	t.begin(name)
	f()
	return t.end()
}

// label wraps segment.Env.Label, counting calls and blackholed answers.
func (t *tracer) label(f func(netip.Addr, int64) bool) func(netip.Addr, int64) bool {
	if t == nil {
		return f
	}
	return func(ip netip.Addr, at int64) bool {
		hit := f(ip, at)
		t.labelCalls++
		if hit {
			t.labelHits++
		}
		return hit
	}
}

// fs wraps segment.Env.FS, timing ACL publication.
func (t *tracer) fs(f acl.FS) acl.FS {
	if t == nil {
		return f
	}
	return &timedFS{FS: f, ns: &t.publishNS}
}

type timedFS struct {
	acl.FS
	ns *int64
}

func (f *timedFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	start := time.Now()
	err := f.FS.WriteFile(name, data, perm)
	*f.ns += int64(time.Since(start))
	return err
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := f.FS.Rename(oldpath, newpath)
	*f.ns += int64(time.Since(start))
	return err
}

// round replays the layers of the round that just ran on its own window:
// the consumer is held at the drain gate, so WindowRecords is exactly the
// window TrainRound trained on. compileNS is the live program's compile
// time (0 without a dropper).
func (t *tracer) round(p *ixpsim.Pipeline, ns, compileNS int64, rd *ixpsim.Round) {
	if t == nil {
		return
	}
	rl := roundLayers{total: ns, publish: t.publishNS, compile: compileNS}
	t.publishNS = 0
	if rd.Skipped {
		return
	}
	t.begin("replay.round")
	defer t.end()
	s := t.replay
	var window []netflow.Record
	rl.snapshot = t.timed("ixpsim.snapshot", func() { window = p.WindowRecords() })
	rl.mine = t.timed("tagging.mine", func() {
		rep, _ := s.MineRules(window)
		rl.rulesMined = rep.RulesMinimized
	})
	var aggs []*features.Aggregate
	rl.aggregate = t.timed("features.aggregate", func() { aggs = s.Aggregate(window, nil) })
	rl.aggregates = len(aggs)
	var fitErr error
	rl.fit = t.timed("core.fit", func() { fitErr = s.Fit(window, aggs) })
	if fitErr != nil {
		return
	}
	var x [][]float64
	rl.encode = t.timed("woe.encode", func() { x = s.EncodeFeatures(aggs) })
	var pred []int
	var predErr error
	rl.predict = t.timed("core.predict", func() { pred, predErr = s.PredictEncoded(x) })
	if predErr != nil {
		return
	}
	var entries []acl.Entry
	rl.generate = t.timed("acl.generate", func() {
		seen := map[netip.Addr]bool{}
		var targets []netip.Addr
		for i, a := range aggs {
			if pred[i] == 1 && !seen[a.Target] {
				seen[a.Target] = true
				targets = append(targets, a.Target)
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })
		entries = s.GenerateACLs(targets, acl.ActionDrop)
		_ = acl.RenderText(entries)
	})
	rl.entries = len(entries)
	if compileNS == 0 {
		// No dropper in the chain: time what compiling this round's
		// verdicts would cost.
		rl.compileAlone = t.timed("dropper.compile", func() { dropper.Compile(dropper.FromEntries(entries)) })
	}
	t.rounds = append(t.rounds, rl)
}

// selfTimes returns each span name's total self time: its duration minus
// the part its child spans cover.
func (t *tracer) selfTimes() map[string]int64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]int64{}
	for _, s := range t.spans {
		out[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
