package tagging

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// checkTaggerOracle asserts the compiled Tagger agrees with the MatchRecord
// interpreter on every record: Match yields exactly the ascending indices
// of the rules MatchRecord accepts, and Matches reports whether any does.
func checkTaggerOracle(tb testing.TB, rules []Rule, recs []netflow.Record) {
	tb.Helper()
	tg := NewTagger(rules)
	var got, want []int
	for r := range recs {
		rec := &recs[r]
		want = want[:0]
		for i := range rules {
			if MatchRecord(rules[i].Antecedent, rec) {
				want = append(want, i)
			}
		}
		got = tg.Match(rec, got[:0])
		if !slices.Equal(got, want) {
			tb.Fatalf("record %+v: Match = %v, interpreter %v", *rec, got, want)
		}
		if tg.Matches(rec) != (len(want) > 0) {
			tb.Fatalf("record %+v: Matches = %v, interpreter hits %v", *rec, len(want) == 0, want)
		}
	}
}

func rule(items ...Item) Rule { return Rule{Antecedent: items} }

// edgeRules are the antecedents whose semantics the compiler must lower
// exactly: contradictory and duplicate fields, unknown fields, values no
// record can carry, and the port/fragment interplay.
func edgeRules() []Rule {
	proto := func(v uint32) Item { return NewItem(FieldProtocol, v) }
	src := func(v uint32) Item { return NewItem(FieldSrcPort, v) }
	dst := func(v uint32) Item { return NewItem(FieldDstPort, v) }
	size := func(v uint32) Item { return NewItem(FieldSize, v) }
	frag := func(v uint32) Item { return NewItem(FieldFragment, v) }
	return []Rule{
		rule(proto(6), proto(17)),            // two protocols: never
		rule(proto(17), proto(17)),           // one protocol twice: UDP
		rule(size(4), size(5)),               // two size bins: never
		rule(src(123)),                       // port item: never on fragments
		rule(proto(17), src(123), frag(1)),   // port and fragment: never
		rule(frag(1)),                        // fragments only
		rule(frag(1), frag(0)),               // the flag alone counts: fragments
		rule(src(PortOther), dst(PortOther)), // sprayed on both ports
		rule(dst(5000)),                      // literal, not retained: never
		rule(dst(11211)),                     // retained catalog port
		rule(NewItem(Field(9), 1)),           // unknown field: never
		rule(NewItem(Field(0), 0)),           // zero field: never
		rule(labelItem),                      // the consequent: never
		rule(size(15)),                       // open top bin
		rule(size(16)),                       // no such bin: never
		rule(size(0)),                        // zero-packet records land here
		rule(proto(300)),                     // no such protocol: never
		rule(),                               // empty antecedent: everything
		rule(proto(17), dst(PortOther), size(4)),
	}
}

// edgeRecords are hand-built records for the edge rules: fragments, zero
// packets, the top size bin, retained and unretained ports.
func edgeRecords() []netflow.Record {
	base := netflow.Record{
		Timestamp: 600,
		SrcIP:     netip.MustParseAddr("192.0.2.1"),
		DstIP:     netip.MustParseAddr("198.51.100.7"),
		SrcPort:   123, DstPort: 40000, Protocol: 17,
		Packets: 10, Bytes: 4680,
	}
	var recs []netflow.Record
	add := func(f func(r *netflow.Record)) {
		r := base
		f(&r)
		recs = append(recs, r)
	}
	add(func(r *netflow.Record) {})
	add(func(r *netflow.Record) { r.Fragment = true })
	add(func(r *netflow.Record) { r.Fragment = true; r.SrcPort, r.DstPort = 0, 0 })
	add(func(r *netflow.Record) { r.Packets, r.Bytes = 0, 0 })
	add(func(r *netflow.Record) { r.Packets, r.Bytes = 0, 1500 })
	add(func(r *netflow.Record) { r.Bytes = 10 * 9000 })
	add(func(r *netflow.Record) { r.Bytes = 10 * 1500 })
	add(func(r *netflow.Record) { r.SrcPort, r.DstPort = 40001, 5000 })
	add(func(r *netflow.Record) { r.SrcPort, r.DstPort = 40001, 11211 })
	add(func(r *netflow.Record) { r.SrcPort, r.DstPort = 1023, 1024 })
	add(func(r *netflow.Record) { r.SrcPort, r.DstPort = 65535, 0 })
	add(func(r *netflow.Record) { r.Protocol = 6; r.DstPort = 80 })
	add(func(r *netflow.Record) { r.Protocol = 255 })
	add(func(r *netflow.Record) { r.Protocol = 0; r.Fragment = true })
	return recs
}

// manyRules draws n random antecedents over a vocabulary that mixes live
// values with dead ones, so the rule words span several uint64s.
func manyRules(n int, seed int64) []Rule {
	rng := rand.New(rand.NewSource(seed))
	vocab := []Item{
		NewItem(FieldProtocol, 1), NewItem(FieldProtocol, 6), NewItem(FieldProtocol, 17),
		NewItem(FieldSrcPort, 53), NewItem(FieldSrcPort, 123), NewItem(FieldSrcPort, PortOther),
		NewItem(FieldSrcPort, 5000), NewItem(FieldDstPort, 80), NewItem(FieldDstPort, 11211),
		NewItem(FieldDstPort, PortOther), NewItem(FieldSize, 0), NewItem(FieldSize, 4),
		NewItem(FieldSize, 15), NewItem(FieldFragment, 1), NewItem(Field(7), 1),
	}
	rules := make([]Rule, n)
	for i := range rules {
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			rules[i].Antecedent = append(rules[i].Antecedent, vocab[rng.Intn(len(vocab))])
		}
	}
	return rules
}

// TestTaggerMatchesInterpreter locks the compiled Tagger to the MatchRecord
// interpreter on synthetic traffic under mined rules, on hand-built edge
// rules and records, on rule sets spanning several bitset words, and on
// the empty rule set.
func TestTaggerMatchesInterpreter(t *testing.T) {
	g := synth.NewGenerator(synth.ProfileUS1())
	balanced, _ := balance.Flows(5, g.Generate(0, 120))
	recs := append(synth.Records(balanced), edgeRecords()...)
	mined, _ := Mine(synth.Records(balanced), DefaultMineOptions())
	set := NewRuleSet(mined)
	set.AcceptAll()
	if len(set.Accepted()) == 0 {
		t.Fatal("no rules mined")
	}

	cases := map[string][]Rule{
		"mined":       set.Accepted(),
		"edge":        edgeRules(),
		"mined+edge":  append(set.Accepted(), edgeRules()...),
		"many=65":     manyRules(65, 1),
		"many=200":    append(manyRules(200, 2), edgeRules()...),
		"empty":       nil,
		"single-dead": {rule(NewItem(FieldDstPort, 5000))},
	}
	for name, rules := range cases {
		t.Run(name, func(t *testing.T) { checkTaggerOracle(t, rules, recs) })
	}
}

// FuzzTaggerMatch decodes a record and a list of antecedents from bytes and
// checks the compiled Tagger against the interpreter.
//
// Layout: 9 record bytes (protocol, src port, dst port, flags, packets,
// mean size), then rules of one length byte (mod 4 items) followed by
// 4-byte items (field mod 7, then a 3-byte value).
func FuzzTaggerMatch(f *testing.F) {
	f.Add([]byte{17, 0, 123, 0x9c, 0x40, 0, 10, 1, 212, 2, 1, 0, 0, 17, 2, 0, 0, 123})
	f.Add([]byte{17, 0, 123, 0, 80, 1, 0, 0, 0, 1, 5, 0, 0, 1, 3, 4, 0, 0, 4, 1, 255, 255, 254})
	f.Add([]byte{6, 0, 0, 0, 0, 2, 1, 255, 255, 2, 1, 0, 0, 6, 1, 0, 0, 17, 0, 3, 6, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		flags := data[5]
		port := func(hi, lo byte) uint16 {
			p := uint16(hi)<<8 | uint16(lo)
			if flags&2 != 0 {
				p %= 1100 // mostly retained ports
			}
			return p
		}
		rec := netflow.Record{
			Protocol: data[0],
			SrcPort:  port(data[1], data[2]),
			DstPort:  port(data[3], data[4]),
			Fragment: flags&1 != 0,
			Packets:  uint64(data[6]),
		}
		rec.Bytes = rec.Packets * (uint64(data[7])<<8 | uint64(data[8]))
		data = data[9:]

		var rules []Rule
		for len(data) > 0 && len(rules) < 200 {
			n := int(data[0] % 4)
			data = data[1:]
			var r Rule
			for ; n > 0 && len(data) >= 4; n-- {
				fld := Field(data[0] % 7)
				v := uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3])
				if data[1] < 0x80 {
					small := v & 0xFFFF
					switch fld {
					case FieldProtocol:
						v = small % 260
					case FieldSize:
						v = small % 18
					case FieldSrcPort, FieldDstPort:
						v = small % 1100
						if data[1]&1 != 0 {
							v = PortOther
						}
					}
				}
				r.Antecedent = append(r.Antecedent, NewItem(fld, v))
				data = data[4:]
			}
			rules = append(rules, r)
		}
		checkTaggerOracle(t, rules, []netflow.Record{rec})
	})
}

// TestItemizeAllocs pins Itemize at zero allocations once dst has room.
func TestItemizeAllocs(t *testing.T) {
	for _, frag := range []bool{false, true} {
		r := ntpRecord(true)
		r.Fragment = frag
		buf := make([]Item, 0, 8)
		if a := testing.AllocsPerRun(100, func() { buf, _ = Itemize(&r, buf) }); a != 0 {
			t.Errorf("fragment=%v: Itemize allocates %.1f times per record, want 0", frag, a)
		}
		if !slices.IsSorted(buf) {
			t.Errorf("fragment=%v: items %s not sorted", frag, ItemsString(buf))
		}
	}
}
