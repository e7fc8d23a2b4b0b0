package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// coordinatorCheckpoint is the coordinator's own durable state. Site
// pipeline state (balancer RNG, window, trainer bundle, champion) is
// checkpointed by each pipeline; the registries are already durable. What
// the coordinator must remember is how far simulated time got and its
// gossip accounting — restore replays the generators up to Minute so
// every RNG stream resumes mid-sequence exactly where the crash left it.
type coordinatorCheckpoint struct {
	SchemaVersion int    `json:"schema_version"`
	Minute        int64  `json:"minute"` // relative minutes completed
	GossipRounds  int    `json:"gossip_rounds"`
	Exchanged     uint64 `json:"exchanged"`
	Rejected      uint64 `json:"rejected"`
	Promotions    uint64 `json:"promotions"`
}

const coordinatorSchemaVersion = 1

func (c *Cluster) checkpointPath() string {
	return filepath.Join(c.cfg.Dir, "cluster-checkpoint.json")
}

// SaveCheckpoint atomically persists the coordinator state. Site
// pipelines checkpoint themselves after every training round.
func (c *Cluster) SaveCheckpoint(ctx context.Context) error {
	cp := coordinatorCheckpoint{
		SchemaVersion: coordinatorSchemaVersion,
		Minute:        c.minute,
		GossipRounds:  c.gossipRounds,
		Exchanged:     c.exchanged,
		Rejected:      c.rejected,
		Promotions:    c.promotions,
	}
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: encoding checkpoint: %w", err)
	}
	return c.cw.Publish(ctx, c.checkpointPath(), data)
}

// restore resumes from what a crashed coordinator left in Dir: coordinator
// counters from the checkpoint file, every site pipeline from its own
// checkpoint (balancer mid-bin, window, trainer) with its champion
// re-resolved from its registry (so an elected import keeps serving), and
// every generator fast-forwarded through the already-simulated minutes so
// the traffic after the crash is bit-identical to a run that never
// crashed.
func (c *Cluster) restore() error {
	data, err := os.ReadFile(c.checkpointPath())
	if err != nil {
		return fmt.Errorf("cluster: no coordinator checkpoint to restore: %w", err)
	}
	var cp coordinatorCheckpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("cluster: decoding checkpoint: %w", err)
	}
	if cp.SchemaVersion != coordinatorSchemaVersion {
		return fmt.Errorf("cluster: checkpoint schema %d, want %d", cp.SchemaVersion, coordinatorSchemaVersion)
	}
	for _, s := range c.sites {
		restored, err := s.pipe.RestoreCheckpoint()
		if err != nil {
			return fmt.Errorf("cluster: restoring site %s: %w", s.Name, err)
		}
		if !restored {
			return fmt.Errorf("cluster: site %s has no checkpoint in %s", s.Name, s.dir)
		}
	}
	// Replay the generator RNG streams (traffic and blackhole schedules)
	// through the minutes the crashed run already simulated.
	for m := int64(0); m < cp.Minute; m++ {
		abs := c.cfg.StartMin + m
		for _, s := range c.sites {
			s.flowBuf = s.gen.GenerateMinute(abs, s.flowBuf[:0])
			s.gen.Events()
		}
	}
	c.minute = cp.Minute
	c.gossipRounds = cp.GossipRounds
	c.exchanged = cp.Exchanged
	c.rejected = cp.Rejected
	c.promotions = cp.Promotions
	if cp.Minute > 0 {
		c.clock.Set((c.cfg.StartMin + cp.Minute - 1) * 60)
	}
	return nil
}
