// Command perfbench is the scrubber's standing end-to-end benchmark. It
// drives synth-generated, wire-format sFlow v5 datagrams through the
// canonical sflow → scrubber segment pipeline (segment.New, as
// examples/pipelines/default-scrubber.yml wires it) in one process, and
// reports records per second, training-round wall time and where the time
// goes.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload live --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare parent.jsonl change.jsonl
//
// The load is closed-loop: one producer (the collector reading the
// benchmark's in-memory conn) and a blocking ingest queue, with a virtual
// clock the conn advances minute by minute, so the pipeline runs as fast
// as it drains. The last line of standard output is the JSON result; the
// human-readable report goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

// runDeadline bounds a whole run, far inside the 180 s a run may take.
const runDeadline = 150 * time.Second

// corpusBuilds is how many times a run generates its corpus.
const corpusBuilds = 3

// minRounds is how many rounds a run gathers at least, so round_ms_tail
// (the 75th percentile) has at least ten rounds beyond it.
const minRounds = 40

func mainErr(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := compare(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wl := fl.String("workload", "live", "workload: ingest, live or flood")
	seed := fl.Uint64("seed", defaultSeed, "workload seed (inputs are a pure function of it)")
	secs := fl.Int("seconds", 20, "how long to measure")
	trace := fl.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fl.String("out", "", "append the result record to this JSON-lines file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*wl)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	o := opts{w: w, seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1, log: stderr}
	rec, err := o.run(context.Background())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		fmt.Fprintf(stdout, `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`+"\n")
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// opts is one benchmark run.
type opts struct {
	w       *workload
	seed    uint64
	seconds time.Duration
	trace   bool
	log     io.Writer
	// minRounds overrides the package minimum (tests use tiny runs).
	minRounds int
	// spans is where a traced run writes its spans.
	spans string
	// conn, when set, edits each pass's conn before it starts (fault tests).
	conn func(*feedConn)
}

// environment identifies where a result was measured.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	e := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is a run's full result: what the last stdout line carries plus
// the identity and digests compare mode and later claims need.
type record struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Env       environment      `json:"env"`
	Passes    int              `json:"passes"`
	Rounds    int              `json:"rounds"`
	Attempted uint64           `json:"attempted"`
	ACLDigest string           `json:"acl_digest"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *record) result() map[string]any {
	return map[string]any{"correct": true, "attempted": r.Attempted, "failed": 0, "metrics": r.Metrics}
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSet is the outcome of a loop of passes.
type runSet struct {
	first  *passResult   // the checked warm-up pass
	passes []*passResult // the counted passes
	rounds []float64     // their rounds, ms
}

// passes runs passes of the workload until budget has elapsed and at least
// minPasses passes and wantRounds rounds are in, checking that every pass
// reproduces the first one's ACL digest and per-minute drop counts. The
// first pass runs the dropper cross-check and warms the process (heap
// growth, caches); it is not counted.
func (o *opts) passes(ctx context.Context, c *corpus, base uint64, tr *tracer, budget time.Duration, minPasses, wantRounds int, stop time.Time) (*runSet, error) {
	rs := &runSet{}
	start := time.Now()
	for i := 0; ; i++ {
		if i > minPasses && len(rs.rounds) >= wantRounds && time.Since(start) >= budget {
			rs.first, rs.passes = rs.passes[0], rs.passes[1:]
			return rs, nil
		}
		if time.Now().After(stop) {
			return nil, errors.New("run deadline passed before enough passes completed")
		}
		r := &runner{w: o.w, c: c, seed: o.seed, tr: tr, check: i == 0, base: base, stop: stop, conn: o.conn}
		res, err := r.run(ctx)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if i > 0 && (res.digest != rs.passes[0].digest || res.dropVec != rs.passes[0].dropVec) {
			return nil, fmt.Errorf("gate: pass %d diverged from pass 0 (ACL digest %016x vs %016x, drop vector %016x vs %016x)",
				i, res.digest, rs.passes[0].digest, res.dropVec, rs.passes[0].dropVec)
		}
		if i > 0 {
			// Only the last pass's programs are replayed; keeping older
			// ones alive would count them in later passes' heap.
			rs.passes[i-1].progByMin = nil
			rs.rounds = append(rs.rounds, toFloats(res.roundsNS, 1e6)...)
		}
		rs.passes = append(rs.passes, res)
	}
}

func (rs *runSet) each(f func(*passResult) float64) float64 {
	xs := make([]float64, len(rs.passes))
	for i, p := range rs.passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// eachPhase returns the median of f over every timed phase of every pass.
func (rs *runSet) eachPhase(f func(*phase) float64) float64 {
	var xs []float64
	for _, p := range rs.passes {
		for i := range p.phases {
			xs = append(xs, f(&p.phases[i]))
		}
	}
	return median(xs)
}

func (rs *runSet) ingestRPS() float64 {
	return rs.eachPhase(func(ph *phase) float64 { return float64(ph.records) / (float64(ph.ingestNS) / 1e9) })
}

func (rs *runSet) realtime() float64 {
	return rs.eachPhase(func(ph *phase) float64 { return ph.simS / (float64(ph.ingestNS+ph.round) / 1e9) })
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func (o *opts) run(ctx context.Context) (*record, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	env := currentEnvironment()
	fmt.Fprintf(o.log, "perfbench: workload %s seed %d; nproc %d GOMAXPROCS %d %s commit %s\n",
		o.w.name, o.seed, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit)
	stop := time.Now().Add(runDeadline)
	// The corpus is generated corpusBuilds times and the median build
	// counts toward setup_s; the last one is kept.
	var c *corpus
	var builds []float64
	for i := 0; i < corpusBuilds; i++ {
		c = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if c, err = buildCorpus(o.w.profile(), o.seed, o.w.minutes()); err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	corpusS := median(builds)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(o.log, "corpus: %d minutes, %d records in %d datagrams (%.1f MB), %.3fs\n",
		c.minutes, c.records(), len(c.dgs), float64(c.bytes)/(1<<20), corpusS)

	wantRounds := minRounds
	if o.minRounds > 0 {
		wantRounds = o.minRounds
	}
	rec := &record{Workload: o.w.name, Seed: o.seed, Trace: o.trace, Env: env, Metrics: map[string]value{}}
	budget, minPasses := o.seconds, 3
	if o.trace {
		budget, minPasses, wantRounds = budget/2, 1, 0
	}
	rs, err := o.passes(ctx, c, ms.HeapAlloc, nil, budget, minPasses, wantRounds, stop)
	if err != nil {
		return nil, err
	}
	rec.Attempted = uint64(len(rs.passes)+1) * uint64(c.records())
	rec.Passes, rec.Rounds = len(rs.passes), len(rs.rounds)
	rec.ACLDigest = fmt.Sprintf("%016x", rs.first.digest)
	if first := rs.first; first.checked {
		m := first.mit
		fmt.Fprintf(o.log, "mitigation: attack dropped %d/%d, benign dropped %d/%d, victims mitigated %d/%d, mitigate p50 %.1f min\n",
			m.attackDropped, m.attack, m.benignDropped, m.benign, m.mitigated, m.victims, m.mitigateMinP50)
	}
	fmt.Fprintf(o.log, "passes %d, rounds %d, ACL digest %s\n", rec.Passes, rec.Rounds, rec.ACLDigest)
	if !o.trace {
		put := func(name string, v float64) {
			rec.Metrics[name] = value{Value: v, Unit: unitOf(name)}
		}
		put("ingest_rps", rs.ingestRPS())
		put("realtime_x", rs.realtime())
		put("round_ms_p50", median(rs.rounds))
		put("round_ms_tail", percentile(rs.rounds, 0.75))
		put("heap_mb_peak", rs.each(func(p *passResult) float64 { return float64(p.heapPeak) / (1 << 20) }))
		put("setup_s", corpusS+rs.each(func(p *passResult) float64 { return float64(p.setupNS) / 1e9 }))
		for _, d := range endToEnd {
			fmt.Fprintf(o.log, "  %-14s %14.4f %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
		}
		return rec, nil
	}
	tr := newTracer()
	ts, err := o.passes(ctx, c, ms.HeapAlloc, tr, o.seconds-o.seconds/2, 1, 0, stop)
	if err != nil {
		return nil, err
	}
	layers := o.traceMetrics(ctx, c, rs, ts, tr, rec)
	path := o.spans
	if path == "" {
		path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.w.name, o.seed))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "spans: %d written to %s\n", len(tr.spans), path)
	layers.print(o.log)
	return rec, nil
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
