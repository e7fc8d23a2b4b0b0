package cluster

import (
	"sync"
	"sync/atomic"

	"github.com/ixp-scrubber/ixpscrubber/internal/ixpsim"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	modelreg "github.com/ixp-scrubber/ixpscrubber/internal/registry"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// clock is the shared virtual clock (unix seconds), advanced only by the
// cluster's driving goroutine and read by every pipeline.
type clock struct{ v atomic.Int64 }

func (c *clock) Set(t int64) { c.v.Store(t) }
func (c *clock) Now() int64  { return c.v.Load() }

// Site is one scrubber vantage point: its traffic generator, its ingest
// shard (the full ixpsim pipeline) and its model registry.
type Site struct {
	Name  string
	Index int

	prof synth.Profile
	gen  *synth.Generator
	pipe *ixpsim.Pipeline
	reg  *modelreg.Registry
	dir  string

	// routed counts records the partitioner sent here; atomic because the
	// metrics scrape reads it concurrently with the driving goroutine.
	routed atomic.Uint64

	// Per-minute chained digests of the kept (balanced) stream.
	digMu   sync.Mutex
	digests map[int64]uint64
	kept    uint64

	rounds    []RoundDigest
	elections []Election

	flowBuf []synth.Flow
	predBuf []int // election verdict scratch, one per site (scored serially)
}

// Pipeline exposes the site's production pipeline.
func (s *Site) Pipeline() *ixpsim.Pipeline { return s.pipe }

// Registry exposes the site's model registry.
func (s *Site) Registry() *modelreg.Registry { return s.reg }

// Profile returns the site's traffic profile.
func (s *Site) Profile() synth.Profile { return s.prof }

// Routed reports how many records the partitioner routed to this site.
func (s *Site) Routed() uint64 { return s.routed.Load() }

// Elections returns the site's election history.
func (s *Site) Elections() []Election { return s.elections }

func (s *Site) keepHook(r netflow.Record) {
	m := r.Timestamp / 60
	s.digMu.Lock()
	d, ok := s.digests[m]
	if !ok {
		d = netflow.FNVOffset
	}
	s.digests[m] = netflow.FoldRecord(d, &r)
	s.kept++
	s.digMu.Unlock()
}

// RoundDigest summarizes one site training round for comparison.
type RoundDigest struct {
	Minute     int64 // relative minute the round ran after
	Skipped    bool
	Records    int
	Aggregates int
	RulesMined int
	Flagged    []string
	ACLDigest  uint64
	Seq        uint64
	Promoted   bool
}

func (s *Site) recordRound(minute int64, round *ixpsim.Round) {
	rd := RoundDigest{
		Minute:     minute,
		Skipped:    round.Skipped,
		Records:    round.Records,
		Aggregates: round.Aggregates,
		RulesMined: round.RulesMined,
		ACLDigest:  netflow.FoldString(netflow.FNVOffset, round.ACLText),
		Seq:        round.Seq,
		Promoted:   round.Promoted,
	}
	for _, t := range round.Flagged {
		rd.Flagged = append(rd.Flagged, t.String())
	}
	s.rounds = append(s.rounds, rd)
}
