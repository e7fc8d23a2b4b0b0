package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/dropper"
	"github.com/ixp-scrubber/ixpscrubber/internal/ixpsim"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/segment"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
)

// passResult is what one pass measured and checked.
type passResult struct {
	setupNS int64 // assembly and warm-up
	timedNS int64 // the whole timed region: ingest phases plus rounds
	// phases are the timed region's ingest phases, each up to the next
	// round boundary, with the round that follows it (0 when none).
	phases    []phase
	roundsNS  []int64 // every round counted for round_ms_*
	heapPeak  uint64  // bytes above the pre-assembly baseline
	digest    uint64  // FNV-1a over every round's minute and ACL text
	dropVec   uint64  // FNV-1a over the per-minute dropper drop counts
	mit       mitigation
	checked   bool // the per-minute dropper cross-check ran
	windowMax int
	rulesMax  int
	swaps     uint64
	readWait  int64 // collector time parked in ReadFrom during the timed region

	progByMin   []*dropper.Program // the program live in each minute (nil: no dropper)
	segRecords  uint64             // records and batches entering the scrubber segment
	segBatches  uint64
	blockedPuts uint64
	qDropped    uint64
}

// phase is one timed ingest phase: its records, simulated seconds, and
// wall time spent ingesting and in the round that closes it.
type phase struct {
	records         int
	simS            float64
	ingestNS, round int64
}

// mitigation holds the ground-truth scoring of the dropper over the timed
// region; pure functions of the seed under lock-step rounds.
type mitigation struct {
	attack, attackDropped uint64
	benign, benignDropped uint64
	victims, mitigated    int
	mitigateMinP50        float64
}

// memFS is the ACL publication target: an in-memory acl.FS, so publishing
// costs no disk I/O and the benchmark writes nothing outside its checkout.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func (m *memFS) WriteFile(name string, data []byte, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = append([]byte(nil), data...)
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[oldpath]
	if !ok {
		return os.ErrNotExist
	}
	delete(m.files, oldpath)
	m.files[newpath] = d
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// drainGate is the pipeline's ConsumeGate. The host drains the ingest queue
// by putting a fence batch behind everything the collector queued: when the
// consumer reaches the fence, every earlier batch has been balanced into the
// window. The consumer then waits at the gate until the host resumes it, so
// a training round at the boundary races nothing.
type drainGate struct {
	calls   atomic.Uint64
	fenceAt atomic.Uint64
	reached chan struct{}
	resume  chan struct{}
}

func newDrainGate() *drainGate {
	return &drainGate{reached: make(chan struct{}), resume: make(chan struct{})}
}

func (g *drainGate) consume(ctx context.Context) {
	if g.calls.Add(1) != g.fenceAt.Load() {
		return
	}
	select {
	case g.reached <- struct{}{}:
	case <-ctx.Done():
		return
	}
	select {
	case <-g.resume:
	case <-ctx.Done():
	}
}

// fenceRecord is balanced as a late record (minute 0 precedes every corpus
// minute): counted by the balancer, never kept. Its zero destination address
// matches no per-target drop rule.
var fenceRecord = netflow.Record{Timestamp: 0, Packets: 1, Bytes: 64, SamplingRate: 1}

// runner drives one pass of a workload over a corpus.
type runner struct {
	w     *workload
	c     *corpus
	seed  uint64
	tr    *tracer // nil when untraced
	check bool    // run the per-minute dropper cross-check
	base  uint64  // heap baseline
	stop  time.Time
	conn  func(*feedConn) // test hook applied to the conn before start
}

func (r *runner) run(ctx context.Context) (*passResult, error) {
	ctx, cancel := context.WithDeadline(ctx, r.stop)
	defer cancel()
	w, c := r.w, r.c
	res := &passResult{}
	var stage *dropper.Stage
	dropByMin := make([]uint64, c.minutes)
	progByMin := make([]*dropper.Program, c.minutes)
	var lastDropped uint64
	conn := newFeedConn(c, func(m int) {
		if stage == nil {
			return
		}
		d := stage.Stats().Dropped
		dropByMin[m] = d - lastDropped
		lastDropped = d
		progByMin[m] = stage.Program()
	})
	if r.conn != nil {
		r.conn(conn)
	}
	// A watchdog closes the conn when the run's deadline passes, so no
	// wait in the host or the reader outlives it.
	go func() {
		<-ctx.Done()
		conn.Close()
	}()

	gate := newDrainGate()
	fs := &memFS{files: map[string][]byte{}}
	env := segment.Env{
		Metrics:      obs.NewRegistry(),
		Label:        r.tr.label(c.reg.Covered),
		Clock:        conn.Now,
		FS:           r.tr.fs(fs),
		ListenPacket: func(string, string) (net.PacketConn, error) { return conn, nil },
		PipelineHook: func(pc *ixpsim.PipelineConfig) { pc.ConsumeGate = gate.consume },
	}
	cfg, err := segment.LoadConfig("perfbench.yml", []byte(w.config(r.seed)))
	if err != nil {
		return nil, err
	}
	r.tr.startPass()
	r.tr.begin("pass")
	defer r.tr.end()
	r.tr.begin("setup")
	setup := time.Now()
	p, err := segment.New(env, cfg)
	if err != nil {
		return nil, err
	}
	pipe := p.Scrubber()
	stage = pipe.Dropper()
	if err := p.Start(ctx); err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			// Cancel first: a consumer held at the drain gate waits on
			// the context, and Close waits for the consumer.
			cancel()
			p.Close()
		}
	}()
	qs := pipe.QueueStats()
	fence := make([]netflow.Record, 1)
	var fences uint64
	h := fnv.New64a()

	// drain releases the reader to minute m and returns once everything
	// before m is in the window, with the consumer held at the gate.
	drain := func(m int) error {
		r.tr.begin("ingest")
		defer r.tr.end()
		conn.runTo(m)
		gate.fenceAt.Store(qs.BatchesIn.Load() + 1)
		fence[0] = fenceRecord
		pipe.EmitBatch(fence)
		fences++
		select {
		case <-gate.reached:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("draining at minute %d: %w", m, ctx.Err())
		}
	}
	resume := func() { gate.resume <- struct{}{} }
	round := func(m int) (int64, error) {
		r.tr.begin("round")
		defer r.tr.end()
		start := time.Now()
		rd, err := pipe.TrainRound(ctx, unix(m))
		ns := int64(time.Since(start))
		if err != nil {
			return 0, fmt.Errorf("training round at minute %d: %w", m, err)
		}
		fmt.Fprintf(h, "%d %t %d\n", m, rd.Skipped, len(rd.ACLText))
		h.Write([]byte(rd.ACLText))
		var compileNS int64
		if stage != nil {
			prog := stage.Program()
			compileNS = prog.CompileNanos()
			res.rulesMax = max(res.rulesMax, prog.Len())
		}
		r.tr.round(pipe, ns, compileNS, rd)
		return ns, nil
	}
	// sampleHeap measures the live heap at a phase boundary, outside the
	// timed region: a forced GC leaves only what is reachable.
	sampleHeap := func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > r.base && ms.HeapAlloc-r.base > res.heapPeak {
			res.heapPeak = ms.HeapAlloc - r.base
		}
	}

	// Set-up: warm the window, the model and the program before timing.
	for _, m := range w.warmRounds() {
		if err := drain(m); err != nil {
			return nil, err
		}
		ns, err := round(m)
		if err != nil {
			return nil, err
		}
		if w.roundEvery == 0 {
			res.roundsNS = append(res.roundsNS, ns)
		}
		resume()
	}
	res.setupNS = int64(time.Since(setup))
	r.tr.end()
	sampleHeap()

	// Timed region.
	end := w.minutes()
	for m := w.warmMin; m < end; {
		next := end
		if w.roundEvery > 0 {
			next = min(m+w.roundEvery, end)
		}
		waitBase := conn.parkedNS()
		start := time.Now()
		if err := drain(next); err != nil {
			return nil, err
		}
		ph := phase{records: c.recMin[next] - c.recMin[m], simS: float64(60 * (next - m)), ingestNS: int64(time.Since(start))}
		if w.roundEvery > 0 {
			ph.round, err = round(next)
			if err != nil {
				return nil, err
			}
			res.roundsNS = append(res.roundsNS, ph.round)
		}
		res.timedNS += ph.ingestNS + ph.round
		res.phases = append(res.phases, ph)
		res.readWait += conn.parkedNS() - waitBase
		resume()
		sampleHeap()
		m = next
	}
	if w.closingRound {
		if err := drain(end); err != nil {
			return nil, err
		}
		ns, err := round(end)
		if err != nil {
			return nil, err
		}
		res.roundsNS = append(res.roundsNS, ns)
		resume()
	}
	res.windowMax = len(pipe.WindowRecords())
	res.blockedPuts = qs.BlockedPuts.Load()
	res.qDropped = qs.DroppedRecords.Load()
	closed = true
	if err := p.Close(); err != nil {
		return nil, fmt.Errorf("closing pipeline: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pass: %w", err)
	}
	res.digest = h.Sum64()

	// Gates.
	st := collectorStats(env.Metrics)
	if st["malformed"]+st["truncated"]+st["nonip"]+st["panics"] != 0 {
		return nil, fmt.Errorf("gate: collector errors %v", st)
	}
	fed := uint64(c.records())
	var dropped uint64
	if stage != nil {
		dropped = stage.Stats().Dropped
		res.swaps = stage.Stats().Swaps
	}
	ingested := pipe.Ingested() - fences
	qdropped := qs.DroppedRecords.Load()
	if fed != ingested+dropped+qdropped {
		return nil, fmt.Errorf("gate: conservation: fed %d != ingested %d + dropped %d + queue-dropped %d",
			fed, ingested, dropped, qdropped)
	}
	res.segRecords, res.segBatches = segmentCounts(env.Metrics, "2:scrubber")
	dv := fnv.New64a()
	for _, d := range dropByMin {
		dv.Write(strconv.AppendUint(nil, d, 10))
		dv.Write([]byte{' '})
	}
	res.dropVec = dv.Sum64()
	if stage != nil {
		res.progByMin = progByMin
	}
	if stage != nil && r.check {
		r.tr.begin("crosscheck")
		mit, err := crossCheck(c, w, dropByMin, progByMin)
		r.tr.end()
		if err != nil {
			return nil, err
		}
		res.mit = mit
		res.checked = true
	}
	return res, nil
}

// scrape renders the pipeline's metrics registry as an operator's
// /metrics scrape would.
func scrape(reg *obs.Registry) []string {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	return strings.Split(buf.String(), "\n")
}

// sample returns the value of the exposition line starting with prefix.
func sample(lines []string, prefix string) (float64, bool) {
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// segmentCounts reads the records and batches that entered one segment.
func segmentCounts(reg *obs.Registry, label string) (records, batches uint64) {
	lines := scrape(reg)
	sel := `{segment="` + label + `"} `
	r, _ := sample(lines, "ixps_segment_records_total"+sel)
	b, _ := sample(lines, "ixps_segment_batches_total"+sel)
	return uint64(r), uint64(b)
}

// collectorStats scrapes the sFlow collector's counters from the pipeline's
// metrics registry, the way an operator reads them from /metrics.
func collectorStats(reg *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, line := range scrape(reg) {
		name, rest, ok := strings.Cut(line, `{proto="sflow"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			continue
		}
		out[strings.TrimSuffix(strings.TrimPrefix(name, "ixps_collector_"), "_total")] = uint64(v)
	}
	return out
}

// decodeMinute decodes corpus minute m with a fresh collector, the same
// conversion the pipeline applies, and returns its records in sample order.
func decodeMinute(c *corpus, m int, col *sflow.Collector, out []netflow.Record) []netflow.Record {
	out = out[:0]
	col.EmitBatch = func(b []netflow.Record) { out = append(out, b...) }
	col.Clock = func() int64 { return unix(m) }
	for i := c.dgMin[m]; i < c.dgMin[m+1]; i++ {
		col.HandleDatagram(c.dgs[i])
	}
	col.Flush()
	return out
}

// crossCheck replays every minute's datagrams through the benchmark's own
// decode and the program that was live in that minute: the records
// Program.Match drops must equal the stage's Dropped delta for the minute.
// The same replay tells attack from benign drops (ground truth) and times
// each victim's mitigation. Only the timed region is scored, and only
// victims whose first attack record falls in it.
func crossCheck(c *corpus, w *workload, dropByMin []uint64, progByMin []*dropper.Program) (mitigation, error) {
	var mit mitigation
	col := &sflow.Collector{BatchSize: 4096}
	var recs []netflow.Record
	onset := map[netip.Addr]int{}
	firstDrop := map[netip.Addr]int{}
	mitigated := map[netip.Addr]bool{}
	for m := 0; m < c.minutes; m++ {
		prog := progByMin[m]
		if prog == nil {
			return mit, fmt.Errorf("gate: no program recorded for minute %d", m)
		}
		recs = decodeMinute(c, m, col, recs)
		if len(recs) != c.recMin[m+1]-c.recMin[m] {
			return mit, fmt.Errorf("gate: minute %d decoded %d records, corpus holds %d",
				m, len(recs), c.recMin[m+1]-c.recMin[m])
		}
		timed := m >= w.warmMin
		var drops uint64
		for i := range recs {
			rec := &recs[i]
			idx := prog.Match(rec)
			drop := idx >= 0 && prog.Action(idx) == acl.ActionDrop
			attack := c.attack[c.recMin[m]+i]
			if drop {
				drops++
			}
			if attack {
				if _, ok := onset[rec.DstIP]; !ok {
					onset[rec.DstIP] = m
				}
			}
			if !timed {
				continue
			}
			if drop {
				if _, ok := onset[rec.DstIP]; ok {
					if _, ok := firstDrop[rec.DstIP]; !ok {
						firstDrop[rec.DstIP] = m
					}
				}
			}
			if attack {
				mit.attack++
				if drop {
					mit.attackDropped++
					mitigated[rec.DstIP] = true
				}
			} else {
				mit.benign++
				if drop {
					mit.benignDropped++
				}
			}
		}
		if drops != dropByMin[m] {
			return mit, fmt.Errorf("gate: dropper cross-check: minute %d: program drops %d records, stage dropped %d",
				m, drops, dropByMin[m])
		}
	}
	var times []float64
	for v, on := range onset {
		if on < w.warmMin {
			continue
		}
		mit.victims++
		if mitigated[v] {
			mit.mitigated++
			times = append(times, float64(firstDrop[v]-on))
		}
	}
	if len(times) > 0 {
		mit.mitigateMinP50 = median(times)
	}
	return mit, nil
}
