package main

import (
	"fmt"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// workload fixes one benchmark input: the traffic profile, the scrubber
// configuration and the minute schedule of a pass. Everything but the
// profile seed is fixed here; the seed comes from the command line.
type workload struct {
	name string
	why  string
	// profile is the vantage-point profile the trace is generated from.
	profile func() synth.Profile
	window  time.Duration
	drop    bool
	// warmMin minutes are ingested during set-up, with a round every
	// warmEvery minutes (0: none) and always one at warmMin when warmMin > 0.
	warmMin   int
	warmEvery int
	// timedMin minutes follow in the timed region, with a round every
	// roundEvery minutes (0: no training in the timed region).
	timedMin   int
	roundEvery int
	// closingRound trains once after the timed region, on the window the
	// ingest built, outside the timed region.
	closingRound bool
}

func (w *workload) minutes() int { return w.warmMin + w.timedMin }

// warmRounds lists the set-up round minutes.
func (w *workload) warmRounds() []int {
	if w.warmMin == 0 {
		return nil
	}
	var ms []int
	for m := w.warmEvery; w.warmEvery > 0 && m < w.warmMin; m += w.warmEvery {
		ms = append(ms, m)
	}
	return append(ms, w.warmMin)
}

// config renders the canonical sflow → scrubber chain
// (examples/pipelines/default-scrubber.yml) with the benchmark's knobs:
// a blocking queue (closed loop), the workload's window and dropper, and
// no checkpoint file.
func (w *workload) config(seed uint64) string {
	return fmt.Sprintf(`pipeline:
  - segment: sflow
    config:
      listen: "perfbench:6343"
      batch: 256
      flush: 50ms
  - segment: scrubber
    config:
      seed: %d
      window: %s
      queue-cap: 64
      drop-policy: block
      min-train: 100
      acl: acls.txt
      drop: %t
`, seed, w.window, w.drop)
}

// floodProfile is IXP-CE1 under a sustained attack: fewer but hours-long,
// heavier episodes, so a frozen program drops a large share of traffic.
func floodProfile() synth.Profile {
	p := synth.ProfileCE1()
	p.Name = "IXP-CE1-flood"
	p.EpisodeRatePerMin = 0.5
	p.EpisodeDurMeanMin = 480
	p.AttackFlowsPerMin = 100
	return p
}

var workloads = []*workload{
	{
		name:    "ingest",
		why:     "collector, queue, balancer and window append at their purest: 24h window, no dropper, no training while timed",
		profile: synth.ProfileCE1, window: 24 * time.Hour,
		timedMin: 90, closingRound: true,
	},
	{
		name:    "live",
		why:     "the deployed scrubberd loop: dropper on, a round every 10 virtual minutes over a 2h window; rounds dominate",
		profile: synth.ProfileCE1, window: 2 * time.Hour, drop: true,
		warmMin: 120, timedMin: 60, roundEvery: 10,
	},
	{
		name:    "flood",
		why:     "sustained attack with the trained program frozen: the dropper matches and drops on every batch",
		profile: floodProfile, window: 2 * time.Hour, drop: true,
		warmMin: 60, warmEvery: 10, timedMin: 50,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (ingest, live, flood)", name)
}
