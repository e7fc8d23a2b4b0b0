package main

import (
	"context"
	"runtime"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/dropper"
	"github.com/ixp-scrubber/ixpscrubber/internal/ixpsim"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
)

// ingestLayers is the ingest path split into layers, each replayed alone
// on the timed region's traffic through the layer's public entry point.
type ingestLayers struct {
	records   int
	datagrams int

	sflowNS, sflowAllocs float64 // per record
	decodeErrors         uint64
	labelNS              float64 // per call
	dropNS, dropAllocs   float64 // per evaluated record
	dropShare            float64
	queueNSPerBatch      float64
	balanceNS, balAllocs float64 // per record
	keptShare            float64
	consumeNS, consAlloc float64 // per record reaching the queue
}

// replays is how many times each layer replay repeats; the median counts.
const replays = 3

// measure runs f replays times and returns the median wall time and the
// median heap allocation count of one run.
func measure(f func()) (ns, allocs float64) {
	var ts, as []float64
	var ms runtime.MemStats
	for i := 0; i < replays; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		f()
		ts = append(ts, float64(time.Since(start)))
		runtime.ReadMemStats(&ms)
		as = append(as, float64(ms.Mallocs-before))
	}
	return median(ts), median(as)
}

// timedBatches decodes the timed region into labeled records, cut into the
// batches the collector emits (batch 256, never spanning a minute).
func timedBatches(c *corpus, w *workload, label func(*netflow.Record) bool) [][]netflow.Record {
	col := &sflow.Collector{BatchSize: 4096}
	var out [][]netflow.Record
	var recs []netflow.Record
	for m := w.warmMin; m < c.minutes; m++ {
		recs = decodeMinute(c, m, col, recs)
		for lo := 0; lo < len(recs); lo += 256 {
			b := append([]netflow.Record(nil), recs[lo:min(lo+256, len(recs))]...)
			for i := range b {
				b[i].Blackholed = label(&b[i])
			}
			out = append(out, b)
		}
	}
	return out
}

// replayIngest measures every ingest layer on the timed region. progs is
// the program live in each minute (nil without a dropper: the stage is
// replayed with the empty program it would start with).
func replayIngest(ctx context.Context, c *corpus, w *workload, seed uint64, progs []*dropper.Program) ingestLayers {
	var l ingestLayers
	first, last := c.dgMin[w.warmMin], c.dgMin[c.minutes]
	l.datagrams = last - first
	l.records = c.recMin[c.minutes] - c.recMin[w.warmMin]
	n := float64(l.records)

	// sflow: HandleDatagram with no labeler, batches to a no-op sink.
	col := &sflow.Collector{EmitBatch: func([]netflow.Record) {}}
	ns, allocs := measure(func() {
		m := w.warmMin
		for i := first; i < last; i++ {
			for c.dgMin[m+1] <= i {
				m++
			}
			at := unix(m)
			col.Clock = func() int64 { return at }
			col.HandleDatagram(c.dgs[i])
		}
		col.Flush()
	})
	l.sflowNS, l.sflowAllocs = ns/n, allocs/n
	l.decodeErrors = col.Stats.DecodeErrs.Load() + col.Stats.Truncated.Load()

	batches := timedBatches(c, w, func(r *netflow.Record) bool { return c.reg.Covered(r.DstIP, r.Timestamp) })

	// bgp: the labeler the pipeline calls once per record.
	ns, _ = measure(func() {
		for _, b := range batches {
			for i := range b {
				c.reg.Covered(b[i].DstIP, b[i].Timestamp)
			}
		}
	})
	l.labelNS = ns / n

	// dropper: Stage.EmitBatch with the program live in each minute. The
	// stage compacts batches in place, so each call gets a fresh copy;
	// only the calls are timed.
	scratch := make([]netflow.Record, 256)
	var evaluated, dropped uint64
	var ts, as []float64
	for rep := 0; rep < replays; rep++ {
		stage := dropper.NewStage(func([]netflow.Record) {})
		var cur *dropper.Program
		var total time.Duration
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for _, b := range batches {
			if m := int(b[0].Minute() - startMinute); progs != nil && progs[m] != cur {
				cur = progs[m]
				stage.Swap(cur)
			}
			s := scratch[:len(b)]
			copy(s, b)
			start := time.Now()
			stage.EmitBatch(s)
			total += time.Since(start)
		}
		runtime.ReadMemStats(&ms)
		ts = append(ts, float64(total))
		as = append(as, float64(ms.Mallocs-before))
		st := stage.Stats()
		evaluated, dropped = st.Evaluated, st.Dropped
	}
	l.dropNS, l.dropAllocs = median(ts)/n, median(as)/n
	if evaluated > 0 {
		l.dropShare = float64(dropped) / float64(evaluated)
	}

	// netflow: Put/Get through a bounded blocking queue with one consumer.
	ns, _ = measure(func() {
		q := netflow.NewQueue(64, netflow.Block)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, ok := q.Get(ctx); !ok {
					return
				}
			}
		}()
		for _, b := range batches {
			q.Put(b)
		}
		q.Close()
		<-done
	})
	l.queueNSPerBatch = ns / float64(len(batches))

	// balance: the per-minute balancer alone.
	var st balance.Stats
	ns, allocs = measure(func() {
		bal := balance.ForRecords(seed, func(netflow.Record) {})
		for _, b := range batches {
			bal.AddBatch(b)
		}
		bal.Flush()
		st = bal.Stats
	})
	l.balanceNS, l.balAllocs = ns/n, allocs/n
	if st.In > 0 {
		l.keptShare = float64(st.Out) / float64(st.In)
	}

	// ixpsim: EmitBatch until drained — queue, balancer and window append
	// together, on the records that survive the dropper.
	survivors := batches
	if progs != nil {
		survivors = nil
		for _, b := range batches {
			prog := progs[int(b[0].Minute()-startMinute)]
			var kept []netflow.Record
			for i := range b {
				if idx := prog.Match(&b[i]); idx < 0 || prog.Action(idx) != acl.ActionDrop {
					kept = append(kept, b[i])
				}
			}
			if len(kept) > 0 {
				survivors = append(survivors, kept)
			}
		}
	}
	var reached float64
	for _, b := range survivors {
		reached += float64(len(b))
	}
	ns, allocs = measure(func() {
		p := ixpsim.NewPipeline(ixpsim.PipelineConfig{
			Seed: seed, Window: w.window, DropPolicy: netflow.Block,
			Clock: func() int64 { return unix(c.minutes) },
		})
		p.Start(ctx)
		for _, b := range survivors {
			p.EmitBatch(b)
		}
		p.Stop()
	})
	if reached > 0 {
		l.consumeNS, l.consAlloc = ns/reached, allocs/reached
	}
	return l
}
