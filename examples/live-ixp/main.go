// Live IXP: run the complete deployment of Figures 1/2 on loopback
// sockets with real wire protocols.
//
// Synthetic member switches export sFlow v5 datagrams over UDP; a member
// router announces and withdraws blackholes over a real BGP session to a
// route server. The collector side is the segment pipeline scrubberd runs,
// assembled from the config below: the sflow listener decodes sampled
// packet headers and labels each flow against the live blackhole registry,
// and the scrubber segment balances the stream per minute, trains a round
// every half hour and renders ACLs for the targets it flags.
//
// Run: go run ./examples/live-ixp
package main

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/netip"
	"strings"
	"sync/atomic"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/bgp"
	"github.com/ixp-scrubber/ixpscrubber/internal/ixpsim"
	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
	"github.com/ixp-scrubber/ixpscrubber/internal/segment"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// pipelineConfig is the collector -> detection chain. The listener binds an
// ephemeral loopback port; batches match the exporter's 16-sample
// datagrams, and the queue blocks rather than drops (the socket buffer
// absorbs bursts).
const pipelineConfig = `pipeline:
  - segment: sflow
    config:
      listen: "127.0.0.1:0"
      batch: 16
  - segment: scrubber
    config:
      drop-policy: block
      min-train: 64
`

const (
	fromMin      = 27_000_000 // an arbitrary epoch minute
	minutes      = 90
	trainEvery   = 30
	perDatagram  = 16
	aclPreview   = 12 // ACL lines printed from the final round
	stallTimeout = 200 * time.Millisecond
)

func main() {
	profile := synth.ProfileUS2()
	profile.BenignFlowsPerMin = 200
	profile.EpisodeRatePerMin = 0.4

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	var clock atomic.Int64 // simulated unix seconds
	clock.Store(fromMin * 60)

	// Route server on loopback, feeding the blackhole registry.
	rsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	registry := bgp.NewRegistry()
	rs := &bgp.RouteServer{
		ASN:      64999,
		RouterID: [4]byte{192, 0, 2, 254},
		Registry: registry,
		Clock:    clock.Load,
		Log:      slog.New(slog.DiscardHandler),
	}
	rsDone := make(chan error, 1)
	go func() { rsDone <- rs.Serve(ctx, rsLn) }()

	// The detection pipeline, labeling against the live registry.
	cfg, err := segment.LoadConfig("live-ixp.yml", []byte(pipelineConfig))
	if err != nil {
		log.Fatal(err)
	}
	bound := make(chan net.Addr, 1)
	p, err := segment.New(segment.Env{
		Label: registry.Covered,
		Clock: clock.Load,
		ListenPacket: func(network, addr string) (net.PacketConn, error) {
			conn, err := net.ListenPacket(network, addr)
			if err == nil {
				select {
				case bound <- conn.LocalAddr():
				default:
				}
			}
			return conn, err
		},
	}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Start(ctx); err != nil {
		log.Fatal(err)
	}
	pipe := p.Scrubber()
	col := p.Instances()[0].(interface{ Collector() *sflow.Collector }).Collector()

	// Member side: a BGP session announcing blackholes and a switch
	// exporting sFlow to the pipeline's listener.
	member, err := bgp.Dial(ctx, rsLn.Addr().String(), bgp.Open{
		ASN: 64501, HoldTime: 90, RouterID: [4]byte{192, 0, 2, 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	exporter, err := sflow.NewExporter((<-bound).String(), netip.MustParseAddr("192.0.2.10"))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("replaying %d minutes of IXP traffic through live sFlow + BGP...\n", minutes)
	start := time.Now()
	nextHop := netip.MustParseAddr("192.0.2.1")
	gen := synth.NewGenerator(profile)
	var (
		builder packet.Builder
		flows   []synth.Flow
		seq     uint32
		sent    uint64
		last    *ixpsim.Round
	)
	samples := make([]sflow.FlowSample, 0, perDatagram)
	// Per-datagram headers alias one builder; keep per-sample copies.
	headers := make([]byte, 0, perDatagram*synth.MaxSampledHeader)
	for m := int64(fromMin); m < fromMin+minutes; m++ {
		clock.Store(m * 60)
		flows = gen.GenerateMinute(m, flows[:0])

		// Blackhole announcements first, so this minute's samples are
		// labeled against a current registry.
		for _, ev := range gen.Events() {
			if ev.Announce {
				err = member.AnnounceBlackhole(ev.Prefix, nextHop)
			} else {
				err = member.WithdrawBlackhole(ev.Prefix)
			}
			if err != nil {
				log.Fatal(err)
			}
		}
		if err := ixpsim.SyncBGPWith(ctx, registry, m*60,
			func() error { return member.AnnounceBlackhole(ixpsim.MarkerPrefix(), nextHop) },
			func() error { return member.WithdrawBlackhole(ixpsim.MarkerPrefix()) }); err != nil {
			log.Fatal(err)
		}

		for i := range flows {
			f := &flows[i]
			frame, err := synth.FrameFor(f, &builder)
			if err != nil {
				log.Fatal(err)
			}
			at := len(headers)
			headers = append(headers, frame...)
			seq++
			samples = append(samples, sflow.FlowSample{
				Sequence:     seq,
				SourceID:     1,
				SamplingRate: f.SamplingRate,
				SamplePool:   seq * f.SamplingRate,
				FrameLength:  uint32(f.Bytes / f.Packets),
				Header:       headers[at:len(headers):len(headers)],
			})
			if len(samples) == perDatagram || i == len(flows)-1 {
				if err := exporter.Send(samples); err != nil {
					log.Fatal(err)
				}
				samples, headers = samples[:0], headers[:0]
			}
		}
		sent += uint64(len(flows))
		if err := caughtUp(ctx, col, pipe, sent); err != nil {
			log.Fatal(err)
		}

		if rel := m - fromMin + 1; rel%trainEvery == 0 {
			round, err := pipe.TrainRound(ctx, (m+1)*60)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  round after minute %2d: window=%d aggregates=%d rules=%d flagged=%d\n",
				rel, round.Records, round.Aggregates, round.RulesMined, len(round.Flagged))
			last = round
		}
	}
	fmt.Printf("replay done in %s:\n", time.Since(start).Round(time.Millisecond))
	bs := pipe.BalanceStats()
	fmt.Printf("  sFlow datagrams received:   %d\n", col.Stats.Datagrams.Load())
	fmt.Printf("  packet samples decoded:     %d of %d sent\n", col.Stats.Samples.Load(), sent)
	fmt.Printf("  flow records produced:      %d\n", col.Stats.Records.Load())
	fmt.Printf("  labeled blackholed (BGP):   %d\n", col.Stats.Blackholed.Load())
	fmt.Printf("  blackholed prefixes seen:   %d\n", registry.PrefixCount())
	fmt.Printf("  balanced records kept:      %d (%.4f%% of stream)\n", bs.Out, 100*bs.Reduction())
	fmt.Printf("  balanced blackhole share:   %.1f%%\n", 100*bs.BlackholeShare())

	if last == nil || last.Skipped {
		log.Fatal("final round did not train")
	}
	fmt.Printf("\nflagged targets (%d): %v\n", len(last.Flagged), last.Flagged)
	lines := strings.SplitAfter(last.ACLText, "\n")
	fmt.Printf("\nACL, first %d of %d lines:\n%s", aclPreview, len(lines), strings.Join(lines[:min(aclPreview, len(lines))], ""))

	exporter.Close()
	member.Close()
	if err := p.Close(); err != nil {
		log.Fatal(err)
	}
	cancel()
	if err := <-rsDone; err != nil {
		log.Fatal(err)
	}
}

// caughtUp waits until the collector has decoded every sample sent so far
// and handed its records to the scrubber, then drains the scrubber's queue.
// Loopback UDP may drop datagrams: when the counters make no progress for
// stallTimeout, the missing samples are counted as lost.
func caughtUp(ctx context.Context, col *sflow.Collector, pipe *ixpsim.Pipeline, sent uint64) error {
	queued := &pipe.QueueStats().RecordsIn
	progress := func() uint64 { return col.Stats.Samples.Load() + queued.Load() }
	last, since := progress(), time.Now()
	for col.Stats.Samples.Load() < sent || queued.Load() < col.Stats.Records.Load() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if cur := progress(); cur != last {
			last, since = cur, time.Now()
		} else if time.Since(since) > stallTimeout {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return pipe.Drain(ctx)
}
