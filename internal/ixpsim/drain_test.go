package ixpsim

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/dropper"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// emitMinutes feeds minutes [from, to) of the lifecycle profile into p, one
// batch per minute.
func emitMinutes(p *Pipeline, gen *synth.Generator, from, to int64) {
	var buf []synth.Flow
	for m := from; m < to; m++ {
		buf = gen.GenerateMinute(lcStart+m, buf[:0])
		p.EmitBatch(synth.Records(buf))
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestPipelineDrainWithDropper loses records to both counted drop points —
// the compiled dropper and a full DropNewest queue behind a stalled
// consumer — and checks Drain waits out the stall and the conservation
// identity holds.
func TestPipelineDrainWithDropper(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	parked := make(chan struct{})
	var once sync.Once
	p := NewPipeline(PipelineConfig{
		Seed:       lcProfile().Seed,
		QueueCap:   2,
		DropPolicy: netflow.DropNewest,
		Clock:      func() int64 { return (lcStart + 10) * 60 },
		Drop:       true,
		ConsumeGate: func(ctx context.Context) {
			once.Do(func() { close(parked) })
			select {
			case <-release:
			case <-ctx.Done():
			}
		},
	})
	p.Dropper().Swap(dropper.Compile([]dropper.Rule{{ID: "udp", Action: acl.ActionDrop, Proto: 17, ProtoSet: true}}))
	p.Start(ctx)
	defer p.Stop()

	gen := synth.NewGenerator(lcProfile())
	emitMinutes(p, gen, 0, 1)
	<-parked
	emitMinutes(p, gen, 1, 6)
	if err := p.Drain(canceledCtx()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with the consumer gated = %v, want context.Canceled", err)
	}
	close(release)
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	dropped := p.Dropper().Stats().Dropped
	queueDropped := p.QueueStats().DroppedRecords.Load()
	if dropped == 0 || queueDropped == 0 {
		t.Fatalf("want losses at both drop points, got dropper %d queue %d", dropped, queueDropped)
	}
	if got, want := p.Ingested()+dropped+queueDropped, p.offered.Load(); got != want {
		t.Fatalf("ingested+dropped = %d, offered %d", got, want)
	}
}

// TestPipelineDrainAfterRestore checks the identity counts only this
// incarnation's records when a checkpoint carried a non-zero Ingested in.
func TestPipelineDrainAfterRestore(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := PipelineConfig{
		Seed:           lcProfile().Seed,
		Clock:          func() int64 { return (lcStart + 10) * 60 },
		CheckpointPath: filepath.Join(t.TempDir(), "ckpt.json"),
	}
	gen := synth.NewGenerator(lcProfile())

	first := NewPipeline(cfg)
	first.Start(ctx)
	emitMinutes(first, gen, 0, 3)
	if err := first.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := first.SaveCheckpoint(ctx); err != nil {
		t.Fatal(err)
	}
	first.Stop()
	carried := first.Ingested()
	if carried == 0 {
		t.Fatal("first incarnation ingested nothing")
	}

	second := NewPipeline(cfg)
	if ok, err := second.RestoreCheckpoint(); err != nil || !ok {
		t.Fatalf("restore = %v, %v", ok, err)
	}
	if second.Ingested() != carried {
		t.Fatalf("restored Ingested = %d, want %d", second.Ingested(), carried)
	}
	second.Start(ctx)
	defer second.Stop()
	if err := second.Drain(ctx); err != nil {
		t.Fatalf("drain before any traffic: %v", err)
	}
	emitMinutes(second, gen, 3, 5)
	if err := second.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := second.Ingested(), carried+second.offered.Load(); got != want {
		t.Fatalf("Ingested = %d, want %d", got, want)
	}
}

// TestPipelineDrainReportsLostRecords simulates a record that vanished
// between EmitBatch and the balancer: Drain must fail with the counters.
func TestPipelineDrainReportsLostRecords(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewPipeline(PipelineConfig{Clock: func() int64 { return lcStart * 60 }})
	p.Start(ctx)
	defer p.Stop()
	p.offered.Add(3)
	err := p.Drain(ctx)
	if err == nil || !strings.Contains(err.Error(), "offered 3 != balanced 0") {
		t.Fatalf("Drain = %v, want a conservation error quoting the counters", err)
	}
}
