package main

import (
	"fmt"
	"net/netip"

	"github.com/ixp-scrubber/ixpscrubber/internal/bgp"
	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// maxDatagram caps an encoded sFlow datagram so it fits a 1500-byte MTU,
// the way a fabric switch packs samples before export.
const maxDatagram = 1400

// startMinute anchors every corpus at a fixed unix minute (2021-03-01).
var startMinute = synth.Date(2021, 3, 1) / 60

// corpus is one workload's input: the wire-format sFlow datagrams of every
// generated minute, the ground truth of every sample in datagram order, and
// the blackhole registry the generator's announcements build. It is made
// once per run from the seed and replayed unchanged by every pass.
type corpus struct {
	minutes int
	dgs     [][]byte // every datagram, minute-major
	dgMin   []int    // first datagram of each minute; len minutes+1
	recMin  []int    // first record of each minute; len minutes+1
	attack  []bool   // ground truth per record, in datagram sample order
	reg     *bgp.Registry
	bytes   int
}

func (c *corpus) records() int { return c.recMin[c.minutes] }

// unix returns the virtual clock, in unix seconds, at the start of corpus
// minute m.
func unix(m int) int64 { return (startMinute + int64(m)) * 60 }

// addrPerm is a seed-keyed bijection of the IPv4 space that keeps /24s
// together: an affine map of the upper 24 bits and an XOR of the host byte.
type addrPerm struct{ mul, add, host uint32 }

func newAddrPerm(seed uint64) addrPerm {
	x := seed*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return addrPerm{mul: uint32(x) | 1, add: uint32(x >> 32), host: uint32(x >> 24)}
}

func (p addrPerm) apply(a netip.Addr) netip.Addr {
	if !a.Is4() {
		return a
	}
	b := a.As4()
	hi := uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])
	hi = (hi*p.mul + p.add) & 0xFFFFFF
	return netip.AddrFrom4([4]byte{byte(hi >> 16), byte(hi >> 8), byte(hi), b[3] ^ byte(p.host)})
}

// buildCorpus generates minutes of traffic for profile p and encodes it
// as sFlow v5 datagrams of up to maxDatagram bytes, never spanning a minute.
//
// The seed keys an address permutation applied to every flow and
// blackhole announcement: each seed is a different trace (addresses,
// hence hashing, sorting, sampling and map layouts all change) with the
// profile's own episode schedule and volume. Drawing the schedule from the
// seed instead made round times differ by a third between seeds, which
// would hide any smaller change.
func buildCorpus(p synth.Profile, seed uint64, minutes int) (*corpus, error) {
	perm := newAddrPerm(seed)
	gen := synth.NewGenerator(p)
	c := &corpus{minutes: minutes, reg: bgp.NewRegistry()}
	var (
		flows   []synth.Flow
		builder packet.Builder
		samples []sflow.FlowSample
		arena   []byte // sample headers of the datagram being packed
		dgBuf   []byte
		seq     uint32
		dgSeq   uint32
		size    int
	)
	agent := netip.AddrFrom4([4]byte{192, 0, 2, 10})
	flush := func() error {
		if len(samples) == 0 {
			return nil
		}
		dgSeq++
		var err error
		dgBuf, err = sflow.Append(dgBuf[:0], &sflow.Datagram{
			AgentAddress: agent, Sequence: dgSeq, Uptime: dgSeq * 1000, Samples: samples,
		})
		if err != nil {
			return fmt.Errorf("encoding datagram %d: %w", dgSeq, err)
		}
		c.dgs = append(c.dgs, append([]byte(nil), dgBuf...))
		c.bytes += len(dgBuf)
		samples, arena, size = samples[:0], arena[:0], 0
		return nil
	}
	for m := 0; m < minutes; m++ {
		c.dgMin = append(c.dgMin, len(c.dgs))
		c.recMin = append(c.recMin, len(c.attack))
		flows = gen.GenerateMinute(startMinute+int64(m), flows[:0])
		for i := range flows {
			f := &flows[i]
			f.SrcIP, f.DstIP = perm.apply(f.SrcIP), perm.apply(f.DstIP)
			frame, err := synth.FrameFor(f, &builder)
			if err != nil {
				return nil, err
			}
			// Flow sample framing (52 bytes) plus the header, padded to 4.
			need := 52 + (len(frame)+3)&^3
			if size+need > maxDatagram-28 {
				if err := flush(); err != nil {
					return nil, err
				}
			}
			if cap(arena)-len(arena) < len(frame) {
				arena = make([]byte, 0, 8192) // earlier samples keep the old arena
			}
			start := len(arena)
			arena = append(arena, frame...)
			seq++
			samples = append(samples, sflow.FlowSample{
				Sequence:     seq,
				SourceID:     1,
				SamplingRate: f.SamplingRate,
				SamplePool:   seq * f.SamplingRate,
				FrameLength:  uint32(f.Bytes / f.Packets),
				Header:       arena[start:len(arena):len(arena)],
			})
			size += need
			c.attack = append(c.attack, f.Attack)
		}
		if err := flush(); err != nil {
			return nil, err
		}
	}
	c.dgMin = append(c.dgMin, len(c.dgs))
	c.recMin = append(c.recMin, len(c.attack))
	for _, ev := range gen.Events() {
		ev.Prefix = netip.PrefixFrom(perm.apply(ev.Prefix.Addr()), ev.Prefix.Bits())
		if ev.Announce {
			c.reg.Announce(ev.Prefix, ev.At)
		} else {
			c.reg.Withdraw(ev.Prefix, ev.At)
		}
	}
	return c, nil
}
