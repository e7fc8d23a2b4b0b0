package dropper

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
)

// Stage is the inline drop stage: an EmitBatch-compatible hop between the
// flow collectors and the ingest queue. Every record in every batch is
// matched against the live compiled Program; records whose first matching
// rule carries ActionDrop are removed in place, the survivors forward to
// the next hop in the original slice (no copy, no allocation). Batches
// that drop to empty are consumed without a downstream call so queue
// batch accounting only ever sees non-empty work.
//
// Programs are published with Swap — an atomic pointer store, the same
// snapshot memory model as the WoE encoder — so promotion → recompile →
// hot swap never pauses or locks the ingest path: in-flight batches
// finish against the program they loaded, subsequent batches see the new
// one.
type Stage struct {
	next func([]netflow.Record)
	prog atomic.Pointer[Program]

	evaluated atomic.Uint64
	dropped   atomic.Uint64
	batches   atomic.Uint64
	swaps     atomic.Uint64
	compileNS atomic.Int64

	mu sync.Mutex
	// cum holds per-rule-ID drop totals folded in from retired programs.
	// Hits landing in a retired program after its fold (an in-flight
	// batch racing a swap) are not re-folded: the aggregate dropped
	// counter stays exact, per-rule totals may undercount by that race.
	cum        map[string]uint64
	registered map[string]bool
	vec        *obs.CounterVec
}

// NewStage builds a drop stage forwarding surviving records to next. The
// stage starts with an empty compiled program — every record is evaluated
// (and counted) from the first batch, none dropped — so conservation
// accounting holds before the first verdict compiles.
func NewStage(next func([]netflow.Record)) *Stage {
	s := &Stage{
		next:       next,
		cum:        make(map[string]uint64),
		registered: make(map[string]bool),
	}
	s.prog.Store(Compile(nil))
	return s
}

// Program returns the live compiled program.
func (s *Stage) Program() *Program { return s.prog.Load() }

// EmitBatch matches every record against the live program, drops the
// matches whose winning rule is ActionDrop, and forwards the rest. The
// batch slice is compacted in place; it is not retained after the
// downstream call returns (collector batch-reuse safe).
func (s *Stage) EmitBatch(recs []netflow.Record) {
	if len(recs) == 0 {
		return
	}
	p := s.prog.Load()
	kept := recs[:0]
	var dropped uint64
	for i := range recs {
		if idx := p.Match(&recs[i]); idx >= 0 && p.rules[idx].Action == acl.ActionDrop {
			p.hits[idx].Add(1)
			dropped++
			continue
		}
		kept = append(kept, recs[i])
	}
	s.evaluated.Add(uint64(len(recs)))
	s.batches.Add(1)
	if dropped > 0 {
		s.dropped.Add(dropped)
	}
	if len(kept) > 0 && s.next != nil {
		s.next(kept)
	}
}

// Swap atomically publishes prog as the live program and folds the
// retired program's per-rule drop counts into the cumulative totals.
// Safe to call concurrently with EmitBatch; never blocks the match path.
func (s *Stage) Swap(prog *Program) {
	if prog == nil {
		prog = Compile(nil)
	}
	s.mu.Lock()
	old := s.prog.Swap(prog)
	if old != nil {
		for id, idxs := range old.byID {
			var n uint64
			for _, i := range idxs {
				if old.rules[i].Action == acl.ActionDrop {
					n += old.hits[i].Load()
				}
			}
			if n > 0 {
				s.cum[id] += n
			}
		}
	}
	var newIDs []string
	if s.vec != nil {
		for id := range prog.byID {
			if !s.registered[id] {
				s.registered[id] = true
				newIDs = append(newIDs, id)
			}
		}
	}
	s.mu.Unlock()
	s.swaps.Add(1)
	s.compileNS.Store(prog.compileNS)
	// Register per-rule scrape funcs outside s.mu: exposition snapshots
	// families before invoking funcs, but keeping lock scopes disjoint
	// costs nothing. Sorted for deterministic registration order.
	sort.Strings(newIDs)
	for _, id := range newIDs {
		id := id
		s.vec.WithFunc(func() float64 { return float64(s.RuleDrops(id)) }, id)
	}
}

// RuleDrops returns the total records dropped by rules with this ID
// across every program that carried it (retired programs' counts are
// folded in at swap).
func (s *Stage) RuleDrops(id string) uint64 {
	s.mu.Lock()
	n := s.cum[id]
	s.mu.Unlock()
	if p := s.prog.Load(); p != nil {
		for _, i := range p.byID[id] {
			if p.rules[i].Action == acl.ActionDrop {
				n += p.hits[i].Load()
			}
		}
	}
	return n
}

// Stats is a point-in-time snapshot of stage counters.
type Stats struct {
	// Evaluated counts records matched against a program (every record
	// that entered the stage).
	Evaluated uint64
	// Dropped counts records removed from the stream.
	Dropped uint64
	// Batches counts EmitBatch calls.
	Batches uint64
	// Swaps counts explicit Swap publications; the empty program
	// NewStage installs is not one.
	Swaps uint64
}

// Stats returns the stage counters.
func (s *Stage) Stats() Stats {
	return Stats{
		Evaluated: s.evaluated.Load(),
		Dropped:   s.dropped.Load(),
		Batches:   s.batches.Load(),
		Swaps:     s.swaps.Load(),
	}
}

// RegisterMetrics exposes the stage under the ixps_dropper_* families:
// evaluated/dropped record totals, live rule count, last compile latency,
// and per-rule drop counters labeled by rule ID. All are scrape-time
// funcs — the match path pays nothing for them.
func (s *Stage) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("ixps_dropper_evaluated_total",
		"Records matched against the compiled drop program.",
		func() float64 { return float64(s.evaluated.Load()) })
	r.CounterFunc("ixps_dropper_dropped_total",
		"Records dropped by the compiled drop program.",
		func() float64 { return float64(s.dropped.Load()) })
	r.GaugeFunc("ixps_dropper_rules",
		"Rules in the live compiled drop program.",
		func() float64 {
			if p := s.prog.Load(); p != nil {
				return float64(p.Len())
			}
			return 0
		})
	r.GaugeFunc("ixps_dropper_compile_ns",
		"Nanoseconds spent compiling the live drop program.",
		func() float64 { return float64(s.compileNS.Load()) })
	vec := r.CounterVec("ixps_dropper_rule_drops_total",
		"Records dropped, by rule ID (aggregated across targets and swaps).",
		"rule")
	s.mu.Lock()
	s.vec = vec
	var ids []string
	if p := s.prog.Load(); p != nil {
		for id := range p.byID {
			if !s.registered[id] {
				s.registered[id] = true
				ids = append(ids, id)
			}
		}
	}
	s.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		id := id
		vec.WithFunc(func() float64 { return float64(s.RuleDrops(id)) }, id)
	}
}
