package features

import (
	"math"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
)

// This file preserves the pre-sharding aggregator — one flat target map per
// minute, full sort.Slice ranking per (categorical, metric) — as the
// reference implementation. The equivalence tests lock the sharded
// streaming top-K path to it bit-for-bit; the benchmarks feed the old-vs-new
// flush numbers of BENCH_PR3.json.

type refGroup struct {
	minute int64
	target netip.Addr
	label  bool
	acc    [NumCats]map[uint64][2]uint64
	rules  map[string]struct{}
	vec    map[string]int
	flows  int
}

type refAggregator struct {
	tagger *tagging.Tagger
	emit   func(*Aggregate)
	cur    int64
	groups map[netip.Addr]*refGroup
	hits   []int
}

func newRefAggregator(tagger *tagging.Tagger, emit func(*Aggregate)) *refAggregator {
	return &refAggregator{
		tagger: tagger,
		emit:   emit,
		cur:    math.MinInt64,
		groups: make(map[netip.Addr]*refGroup),
	}
}

func (a *refAggregator) Add(rec *netflow.Record, vector string) {
	m := rec.Minute()
	if m < a.cur {
		return
	}
	if m > a.cur {
		a.flush()
		a.cur = m
	}
	g := a.groups[rec.DstIP]
	if g == nil {
		g = &refGroup{
			minute: m,
			target: rec.DstIP,
			rules:  make(map[string]struct{}),
			vec:    make(map[string]int),
		}
		for c := range g.acc {
			g.acc[c] = make(map[uint64][2]uint64)
		}
		a.groups[rec.DstIP] = g
	}
	g.flows++
	if rec.Blackholed {
		g.label = true
	}
	if vector != "" {
		g.vec[vector]++
	}
	for c := 0; c < NumCats; c++ {
		k := catKey(c, rec)
		bp := g.acc[c][k]
		bp[0] += rec.Bytes
		bp[1] += rec.Packets
		g.acc[c][k] = bp
	}
	if a.tagger != nil {
		a.hits = a.hits[:0]
		a.hits = a.tagger.Match(rec, a.hits)
		for _, i := range a.hits {
			g.rules[a.tagger.Rules()[i].ID] = struct{}{}
		}
	}
}

func (a *refAggregator) Close() { a.flush() }

func (a *refAggregator) flush() {
	if len(a.groups) == 0 {
		return
	}
	targets := make([]netip.Addr, 0, len(a.groups))
	for t := range a.groups {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Compare(targets[j]) < 0 })
	for _, t := range targets {
		agg := a.groups[t].finish()
		if a.emit != nil {
			a.emit(agg)
		}
	}
	clear(a.groups)
}

type refKV struct {
	key   uint64
	bytes uint64
	pkts  uint64
	met   float64
}

func (g *refGroup) finish() *Aggregate {
	agg := &Aggregate{
		Minute: g.minute,
		Target: g.target,
		Label:  g.label,
		Flows:  g.flows,
	}
	var scratch []refKV
	for c := 0; c < NumCats; c++ {
		scratch = scratch[:0]
		for k, bp := range g.acc[c] {
			scratch = append(scratch, refKV{key: k, bytes: bp[0], pkts: bp[1]})
		}
		for m := 0; m < NumMets; m++ {
			for i := range scratch {
				e := &scratch[i]
				switch m {
				case MetPktSize:
					if e.pkts == 0 {
						e.met = 0
					} else {
						e.met = float64(e.bytes) / float64(e.pkts)
					}
				case MetBytes:
					e.met = float64(e.bytes)
				default:
					e.met = float64(e.pkts)
				}
			}
			sort.Slice(scratch, func(i, j int) bool {
				if scratch[i].met != scratch[j].met {
					return scratch[i].met > scratch[j].met
				}
				return scratch[i].key < scratch[j].key
			})
			for r := 0; r < R && r < len(scratch); r++ {
				agg.Keys[c][m][r] = scratch[r].key
				agg.Present[c][m][r] = true
				agg.Mets[c][m][r] = scratch[r].met
			}
		}
		agg.Distinct[c] = float64(len(g.acc[c]))
	}
	if len(g.rules) > 0 {
		agg.RuleIDs = make([]string, 0, len(g.rules))
		for id := range g.rules {
			agg.RuleIDs = append(agg.RuleIDs, id)
		}
		sort.Strings(agg.RuleIDs)
	}
	best, bestN := "", 0
	for v, n := range g.vec {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	agg.Vector = best
	return agg
}

// equivalenceFlows builds a seeded synthetic stream (balanced, with ground
// truth vectors) plus hand-crafted tie cases the generator is unlikely to
// produce: equal metric values that must break by key, zero-packet entries,
// and targets colliding across minutes.
func equivalenceFlows(tb testing.TB, minutes int) ([]netflow.Record, []string) {
	tb.Helper()
	g := synth.NewGenerator(synth.ProfileUS1())
	balanced, _ := balance.Flows(17, g.Generate(0, int64(minutes)))
	recs := make([]netflow.Record, 0, len(balanced)+64)
	vecs := make([]string, 0, cap(recs))
	for i := range balanced {
		recs = append(recs, balanced[i].Record)
		vecs = append(vecs, balanced[i].Vector)
	}
	// Tie block: six sources at identical byte/packet counts into one
	// target — ranking must pick the R lowest keys deterministically.
	tieMinute := int64(minutes + 1)
	for i := 0; i < 6; i++ {
		recs = append(recs, netflow.Record{
			Timestamp: tieMinute * 60,
			SrcIP:     netip.AddrFrom4([4]byte{203, 0, 113, byte(10 + i)}),
			DstIP:     netip.MustParseAddr("198.51.100.200"),
			SrcPort:   uint16(40000 + i),
			DstPort:   80,
			Protocol:  6,
			SrcMAC:    [6]byte{2, 0, 0, 0, 0, byte(i)},
			Packets:   10,
			Bytes:     5000,
		})
		vecs = append(vecs, "")
	}
	return recs, vecs
}

// withLateRecord appends a copy of the first record moved back to minute 0,
// after the stream has advanced past it: every aggregator must drop it.
func withLateRecord(recs []netflow.Record, vecs []string) ([]netflow.Record, []string) {
	late := recs[0]
	late.Timestamp = 0
	return append(recs[:len(recs):len(recs)], late), append(vecs[:len(vecs):len(vecs)], "")
}

func runAggregator(add func(*netflow.Record, string), close func(), recs []netflow.Record, vecs []string) {
	for i := range recs {
		add(&recs[i], vecs[i])
	}
	close()
}

// TestAggregatorEquivalence locks the sharded streaming aggregator to the
// reference implementation: identical Aggregate records (keys, metrics,
// presence masks, ordering, rules, vectors) at shard counts 1, 4 and 16,
// with and without a tagger, at several worker counts.
func TestAggregatorEquivalence(t *testing.T) {
	recs, vecs := withLateRecord(equivalenceFlows(t, 30))
	rules := []tagging.Rule{
		{ID: "udp", Antecedent: []tagging.Item{tagging.NewItem(tagging.FieldProtocol, 17)}},
		{ID: "http", Antecedent: []tagging.Item{tagging.NewItem(tagging.FieldDstPort, 80)}},
	}
	for _, withTagger := range []bool{false, true} {
		var tagger *tagging.Tagger
		if withTagger {
			tagger = tagging.NewTagger(rules)
		}
		var want []*Aggregate
		ref := newRefAggregator(tagger, func(a *Aggregate) { want = append(want, a) })
		runAggregator(ref.Add, ref.Close, recs, vecs)
		if len(want) == 0 {
			t.Fatal("reference produced no aggregates")
		}
		for _, shards := range []int{1, 4, 16} {
			for _, workers := range []int{1, 4} {
				var got []*Aggregate
				a := NewAggregatorShards(tagger, shards, func(ag *Aggregate) { got = append(got, ag) })
				a.Workers = workers
				runAggregator(a.Add, a.Close, recs, vecs)
				if len(got) != len(want) {
					t.Fatalf("tagger=%v shards=%d workers=%d: %d aggregates, reference %d",
						withTagger, shards, workers, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("tagger=%v shards=%d workers=%d: aggregate %d differs:\n got: %+v\nwant: %+v",
							withTagger, shards, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestAggregatorEquivalenceBatch: the AddBatch path must match record-wise
// Add exactly, including late-record drops at batch boundaries.
func TestAggregatorEquivalenceBatch(t *testing.T) {
	recs, vecs := withLateRecord(equivalenceFlows(t, 20))

	var want []*Aggregate
	one := NewAggregatorShards(nil, 4, func(a *Aggregate) { want = append(want, a) })
	runAggregator(one.Add, one.Close, recs, vecs)

	for _, batch := range []int{1, 7, 256} {
		var got []*Aggregate
		a := NewAggregatorShards(nil, 4, func(ag *Aggregate) { got = append(got, ag) })
		for lo := 0; lo < len(recs); lo += batch {
			hi := min(lo+batch, len(recs))
			a.AddBatch(recs[lo:hi], vecs[lo:hi])
		}
		a.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch=%d: AddBatch output differs from Add", batch)
		}
	}
}

// TestAggregatorGroupRecycling: recycled groups (minute N's maps reused in
// minute N+1) must never leak state between minutes or targets.
func TestAggregatorGroupRecycling(t *testing.T) {
	recs, vecs := equivalenceFlows(t, 8)
	var twice []*Aggregate
	a := NewAggregatorShards(nil, 4, func(ag *Aggregate) { twice = append(twice, ag) })
	runAggregator(a.Add, func() {}, recs, vecs)
	// Re-feed the same stream shifted by an hour: every group is built on
	// recycled maps. Output must mirror the first pass except for Minute.
	shift := int64(3600)
	shifted := make([]netflow.Record, len(recs))
	for i, r := range recs {
		r.Timestamp += shift
		shifted[i] = r
	}
	runAggregator(func(r *netflow.Record, v string) { a.Add(r, v) }, a.Close, shifted, vecs)
	if len(twice)%2 != 0 {
		t.Fatalf("aggregate count %d not even across identical passes", len(twice))
	}
	half := len(twice) / 2
	for i := 0; i < half; i++ {
		first, second := twice[i], twice[half+i]
		second.Minute -= shift / 60
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("aggregate %d differs after group recycling", i)
		}
	}
}

// TestAggregateAddAllocs gates the per-record aggregation cost: once a
// minute's groups and maps are warm, Add must stay within budget. Budget 1:
// netip.Addr map keys hash through an interface on some paths and group
// promotion may grow a bucket; anything above that means a regression to
// per-record scratch allocation.
func TestAggregateAddAllocs(t *testing.T) {
	recs, vecs := equivalenceFlows(t, 6)
	a := NewAggregatorShards(nil, 4, nil)
	runAggregator(a.Add, func() {}, recs, vecs) // warm groups and free list
	r := recs[len(recs)/2]
	r.Timestamp += 3600 // new minute: groups recycle from the free list
	a.Add(&r, "")
	avg := testing.AllocsPerRun(200, func() {
		a.Add(&r, "")
	})
	if avg > 1 {
		t.Errorf("aggregator Add allocates %.1f objects/record, budget 1", avg)
	}
}

func benchFlushFlows(b *testing.B) []netflow.Record {
	b.Helper()
	g := synth.NewGenerator(synth.ProfileUS1())
	balanced, _ := balance.Flows(23, g.Generate(0, 20))
	recs := make([]netflow.Record, len(balanced))
	for i := range balanced {
		recs[i] = balanced[i].Record
	}
	return recs
}

// BenchmarkFlushSharded vs BenchmarkFlushReference: the aggregation flush
// pair recorded by scripts/bench.sh into BENCH_PR3.json.
func BenchmarkFlushSharded(b *testing.B) {
	recs := benchFlushFlows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAggregator(nil, nil)
		a.AddBatch(recs, nil)
		a.Close()
	}
}

func BenchmarkFlushReference(b *testing.B) {
	recs := benchFlushFlows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := newRefAggregator(nil, nil)
		for j := range recs {
			a.Add(&recs[j], "")
		}
		a.Close()
	}
}
