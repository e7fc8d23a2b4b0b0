package ixpsim

import (
	"context"
	"fmt"
	"net/netip"

	"github.com/ixp-scrubber/ixpscrubber/internal/bgp"
)

// markerPrefix is a sync beacon inside the RFC 2544 benchmarking range: the
// member session announces and immediately withdraws it to establish a
// happens-before edge with all previously sent updates (BGP sessions are
// ordered byte streams, so once the marker round-trips, every earlier
// update has been applied to the registry).
var markerPrefix = netip.MustParsePrefix("198.18.255.254/32")

// SyncBGPWith round-trips the marker: announce sends it, withdraw retracts
// it, and both halves are confirmed against the registry. The chaos harness
// syncs through a bgp.Persistent session with this.
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

// MarkerPrefix is the sync beacon SyncBGPWith round-trips; exported so
// harness code can tell marker updates apart from traffic-driven ones.
func MarkerPrefix() netip.Prefix { return markerPrefix }
