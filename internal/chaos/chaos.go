// Package chaos is a seeded, fully deterministic fault-injection harness
// for the complete scrubber pipeline. It drives the same production path
// cmd/scrubberd runs — sFlow collector -> bounded ingest queue -> online
// balancer -> sliding window -> two-step model -> atomic ACL writer, with
// blackhole labels learned over real BGP sessions — through scripted fault
// scenarios: truncated and garbage datagrams, collector socket errors,
// BGP session drops and withdraw storms, stuck downstream consumers,
// exporter clock skew, torn ACL writes, label-hook panics, and mid-run
// crash/restart from a checkpoint.
//
// Determinism is the point: every run of a scenario produces bit-identical
// balanced-stream digests, classifications and ACL text, so tests can
// assert not only that the pipeline survives a fault but exactly what the
// fault cost. Three mechanisms make that possible:
//
//   - virtual time (Clock) — record timestamps, registry windows and the
//     training schedule advance in lock step with the script, never with
//     the wall clock;
//   - an in-memory packet conn (PacketConn) — datagrams arrive in
//     injection order with no UDP loss, read deadlines resolve instantly
//     and socket errors happen exactly where scripted;
//   - lock-step settling — between simulated minutes the harness waits for
//     the collector's conn to go idle (PacketConn.WaitIdle) and for the
//     ingest queue to drain (ixpsim.Pipeline.Drain), so batch boundaries
//     (and therefore drop decisions under backpressure) are reproducible.
//     Every wait is on an event, never on a wall-clock timer.
package chaos

import (
	"context"
	"sync"

	"github.com/ixp-scrubber/ixpscrubber/internal/par"
)

// Clock is a shared virtual clock in unix seconds. The harness advances it
// once per simulated minute; the collector, the registry's route server and
// the pipeline's window pruning all read it through Now.
type Clock struct {
	mu  sync.Mutex
	now int64
}

// Set moves the clock to t.
func (c *Clock) Set(t int64) {
	c.mu.Lock()
	c.now = t
	c.mu.Unlock()
}

// Now returns the current virtual time.
func (c *Clock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Gate stalls the pipeline's queue consumer to model a stuck downstream
// stage. While closed, Wait blocks every consume; Open releases them. The
// zero Gate is open.
type Gate struct {
	mu      sync.Mutex
	closed  bool
	parked  bool      // a Wait has blocked since the gate last closed
	changed par.Event // fired by Open and by a Wait that blocks
}

// Close starts stalling waiters. Closing an already-closed gate is a no-op.
func (g *Gate) Close() {
	g.mu.Lock()
	if !g.closed {
		g.closed, g.parked = true, false
	}
	g.mu.Unlock()
}

// Open releases all waiters. Opening an open gate is a no-op.
func (g *Gate) Open() {
	g.mu.Lock()
	g.closed = false
	g.changed.Fire()
	g.mu.Unlock()
}

// Wait blocks while the gate is closed (or until ctx ends).
func (g *Gate) Wait(ctx context.Context) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		g.parked = true
		g.changed.Fire()
		// A canceled consume returns like a released one.
		_ = g.changed.Await(ctx, &g.mu, func() bool { return !g.closed })
	}
}

// WaitParked blocks until the gate is open or a consumer has blocked at it
// since it last closed, or until ctx ends.
func (g *Gate) WaitParked(ctx context.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.changed.Await(ctx, &g.mu, func() bool { return g.parked || !g.closed })
}
