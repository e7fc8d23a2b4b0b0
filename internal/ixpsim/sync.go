package ixpsim

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/bgp"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
)

// markerPrefix is a sync beacon inside the RFC 2544 benchmarking range: the
// member session announces and immediately withdraws it to establish a
// happens-before edge with all previously sent updates (BGP sessions are
// ordered byte streams, so once the marker round-trips, every earlier
// update has been applied to the registry).
var markerPrefix = netip.MustParsePrefix("198.18.255.254/32")

// SyncBGP round-trips the marker through the route server over a raw
// member session.
func SyncBGP(ctx context.Context, member *bgp.Conn, reg *bgp.Registry, nextHop netip.Addr, at int64) error {
	return SyncBGPWith(ctx, reg, at,
		func() error { return member.AnnounceBlackhole(markerPrefix, nextHop) },
		func() error { return member.WithdrawBlackhole(markerPrefix) })
}

// SyncBGPWith is the transport-agnostic marker round-trip: announce sends
// the marker, withdraw retracts it, and both halves are confirmed against
// the registry. The chaos harness syncs through a bgp.Persistent session
// with this.
func SyncBGPWith(ctx context.Context, reg *bgp.Registry, at int64, announce, withdraw func() error) error {
	if err := announce(); err != nil {
		return fmt.Errorf("ixpsim: marker announce: %w", err)
	}
	marker := markerPrefix.Addr()
	if err := reg.Await(ctx, func() bool { return reg.Covered(marker, at) }); err != nil {
		return fmt.Errorf("ixpsim: waiting for marker announce: %w", err)
	}
	if err := withdraw(); err != nil {
		return fmt.Errorf("ixpsim: marker withdraw: %w", err)
	}
	if err := reg.Await(ctx, func() bool { return !reg.Covered(marker, at) }); err != nil {
		return fmt.Errorf("ixpsim: waiting for marker withdraw: %w", err)
	}
	return nil
}

// MarkerPrefix is the sync beacon SyncBGP round-trips; exported so harness
// code can tell marker updates apart from traffic-driven ones.
func MarkerPrefix() netip.Prefix { return markerPrefix }

// WaitSamples waits until the collector has seen total samples, tolerating
// loopback UDP loss by giving up once progress stalls.
func WaitSamples(ctx context.Context, c *sflow.Collector, total uint64) error {
	last := c.Stats.Samples.Load()
	stall := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur := c.Stats.Samples.Load()
		if cur >= total {
			return nil
		}
		if cur == last {
			stall++
			if stall > 400 { // ~200 ms without progress: count it as loss
				return nil
			}
		} else {
			stall = 0
			last = cur
		}
		time.Sleep(500 * time.Microsecond)
	}
}
