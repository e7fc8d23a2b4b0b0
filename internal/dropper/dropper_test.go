package dropper_test

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/dropper"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
)

func mustParse(t *testing.T, text string) []dropper.Rule {
	t.Helper()
	rules, err := dropper.ParseRules(text)
	if err != nil {
		t.Fatalf("ParseRules(%q): %v", text, err)
	}
	return rules
}

func TestParseRules(t *testing.T) {
	rules := mustParse(t, `
# reflection floods
drop proto=udp src-port=123 dst=198.51.100.7/32 id=ntp-reflect
drop proto=udp src-port=other size-bin=15
monitor proto=tcp dst-port=179 src=2001:db8::/32
drop fragment proto=udp id=frags
`)
	if len(rules) != 4 {
		t.Fatalf("got %d rules, want 4", len(rules))
	}
	r := rules[0]
	if r.ID != "ntp-reflect" || r.Action != acl.ActionDrop ||
		!r.ProtoSet || r.Proto != 17 ||
		!r.SrcPortSet || r.SrcPort != 123 ||
		r.DstPortSet || r.SizeBinSet || r.Fragment ||
		r.Dst != netip.MustParsePrefix("198.51.100.7/32") || r.Src.IsValid() {
		t.Fatalf("rule 0 parsed wrong: %+v", r)
	}
	if rules[1].SrcPort != tagging.PortOther || rules[1].SizeBin != 15 {
		t.Fatalf("rule 1 parsed wrong: %+v", rules[1])
	}
	if rules[1].ID == "" || !strings.HasPrefix(rules[1].ID, "r-") {
		t.Fatalf("rule 1 should get a stable derived ID, got %q", rules[1].ID)
	}
	if again := mustParse(t, "drop proto=udp src-port=other size-bin=15"); again[0].ID != rules[1].ID {
		t.Fatalf("derived ID not stable: %q vs %q", again[0].ID, rules[1].ID)
	}
	if rules[2].Action != acl.ActionMonitor || rules[3].Fragment != true {
		t.Fatalf("rules 2/3 parsed wrong: %+v / %+v", rules[2], rules[3])
	}

	for _, bad := range []string{
		"deny proto=udp",             // unknown action
		"drop proto=sctp",            // unknown protocol name
		"drop proto=300",             // protocol out of range
		"drop src-port=5000",         // unretained literal port
		"drop src-port=70000",        // port out of range
		"drop size-bin=16",           // bin out of range
		"drop dst=10.0.0.0",          // not a CIDR
		"drop fragment src-port=123", // contradiction
		"drop proto=udp proto=tcp",   // duplicate key
		"drop fragment=yes",          // fragment takes no value
		"drop bogus=1",               // unknown key
		"drop id=has space",          // invalid ID (split into bad token)
		"drop id=",                   // empty value
		"drop proto=udp id=nøpe",     // non-ASCII ID
	} {
		if _, err := dropper.ParseRules(bad); err == nil {
			t.Errorf("ParseRules(%q) accepted, want error", bad)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rules := genRules(rng, 300)
	data := dropper.Marshal(rules)
	got, err := dropper.Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(got) != len(rules) {
		t.Fatalf("round trip count %d != %d", len(got), len(rules))
	}
	for i := range rules {
		if got[i] != rules[i] {
			t.Fatalf("rule %d round trip diverged:\ngot  %+v\nwant %+v", i, got[i], rules[i])
		}
	}

	// Corrupt and truncated inputs must error, never panic.
	if _, err := dropper.Unmarshal(nil); err == nil {
		t.Error("Unmarshal(nil) accepted")
	}
	if _, err := dropper.Unmarshal([]byte("NOPE!")); err == nil {
		t.Error("bad magic accepted")
	}
	for cut := 1; cut < len(data); cut += 37 {
		if _, err := dropper.Unmarshal(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := dropper.Unmarshal(append(append([]byte(nil), data...), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func rec(dst string, proto uint8, srcPort uint16) netflow.Record {
	return netflow.Record{
		SrcIP:    netip.MustParseAddr("192.0.2.1"),
		DstIP:    netip.MustParseAddr(dst),
		SrcPort:  srcPort,
		DstPort:  4444,
		Protocol: proto,
		Packets:  10,
		Bytes:    1000,
	}
}

func TestStageDropsAndForwards(t *testing.T) {
	var forwarded []netflow.Record
	stage := dropper.NewStage(func(b []netflow.Record) {
		forwarded = append(forwarded, b...)
	})

	// The initial empty program evaluates but never drops.
	stage.EmitBatch([]netflow.Record{rec("198.51.100.7", 17, 123), rec("198.51.100.8", 6, 80)})
	if st := stage.Stats(); st.Evaluated != 2 || st.Dropped != 0 || st.Batches != 1 || len(forwarded) != 2 {
		t.Fatalf("empty program stats wrong: %+v, forwarded %d", st, len(forwarded))
	}

	rules := mustParse(t, `
drop proto=udp src-port=123 dst=198.51.100.7/32 id=ntp
monitor proto=tcp id=watch
`)
	stage.Swap(dropper.Compile(rules))
	forwarded = nil

	batch := []netflow.Record{
		rec("198.51.100.7", 17, 123), // dropped by ntp
		rec("198.51.100.9", 17, 123), // off-target: passes
		rec("198.51.100.7", 6, 9999), // matches monitor: passes
	}
	stage.EmitBatch(batch)
	if st := stage.Stats(); st.Evaluated != 5 || st.Dropped != 1 || st.Swaps != 1 {
		t.Fatalf("stats after drop: %+v", st)
	}
	if len(forwarded) != 2 || forwarded[0].DstPort != 4444 {
		t.Fatalf("forwarded %d records, want 2", len(forwarded))
	}
	if forwarded[0].SrcPort != 123 || forwarded[1].Protocol != 6 {
		t.Fatalf("wrong survivors forwarded: %+v", forwarded)
	}
	if n := stage.RuleDrops("ntp"); n != 1 {
		t.Fatalf("RuleDrops(ntp) = %d, want 1", n)
	}
	if n := stage.RuleDrops("watch"); n != 0 {
		t.Fatalf("RuleDrops(watch) = %d, want 0 (monitor matches aren't drops)", n)
	}

	// A batch that drops to empty is consumed, not forwarded.
	forwarded = nil
	stage.EmitBatch([]netflow.Record{rec("198.51.100.7", 17, 123)})
	if len(forwarded) != 0 {
		t.Fatalf("fully dropped batch forwarded %d records", len(forwarded))
	}

	// Swapping folds the retired program's per-rule counts; totals
	// survive across programs that keep the rule ID.
	stage.Swap(dropper.Compile(rules))
	stage.EmitBatch([]netflow.Record{rec("198.51.100.7", 17, 123)})
	if n := stage.RuleDrops("ntp"); n != 3 {
		t.Fatalf("RuleDrops(ntp) across swap = %d, want 3", n)
	}
}

func TestStageMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	stage := dropper.NewStage(nil)
	stage.RegisterMetrics(reg)
	stage.Swap(dropper.Compile(mustParse(t, "drop proto=udp src-port=1900 id=ssdp")))
	stage.EmitBatch([]netflow.Record{rec("198.51.100.7", 17, 1900), rec("198.51.100.7", 6, 80)})

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"ixps_dropper_evaluated_total 2",
		"ixps_dropper_dropped_total 1",
		"ixps_dropper_rules 1",
		"ixps_dropper_compile_ns ",
		`ixps_dropper_rule_drops_total{rule="ssdp"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestStageSwapUnderLoad hammers EmitBatch from several goroutines while
// programs swap continuously: the race detector checks the snapshot
// memory model, and conservation (evaluated == dropped + forwarded) must
// hold exactly across every swap.
func TestStageSwapUnderLoad(t *testing.T) {
	progA := dropper.Compile(mustParse(t, "drop proto=udp src-port=123 id=a"))
	progB := dropper.Compile(mustParse(t, "drop proto=udp src-port=1900 id=b\ndrop proto=udp src-port=123 id=a"))

	var forwarded [4]uint64
	stages := [4]*dropper.Stage{}
	done := make(chan struct{})
	for g := range stages {
		g := g
		stages[g] = dropper.NewStage(func(b []netflow.Record) { forwarded[g] += uint64(len(b)) })
	}
	// One swapper per stage plus the emitters.
	for _, s := range stages {
		s := s
		go func() {
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if i%2 == 0 {
					s.Swap(progA)
				} else {
					s.Swap(progB)
				}
			}
		}()
	}
	const batches, per = 300, 64
	for g, s := range stages {
		batch := make([]netflow.Record, per)
		for i := 0; i < batches; i++ {
			for j := range batch {
				sp := uint16(123)
				switch j % 3 {
				case 1:
					sp = 1900
				case 2:
					sp = 53
				}
				batch[j] = rec("198.51.100.7", 17, sp)
			}
			s.EmitBatch(batch)
		}
		st := s.Stats()
		if st.Evaluated != batches*per {
			t.Fatalf("stage %d evaluated %d, want %d", g, st.Evaluated, batches*per)
		}
		if st.Dropped+forwarded[g] != st.Evaluated {
			t.Fatalf("stage %d conservation broken: %d dropped + %d forwarded != %d evaluated",
				g, st.Dropped, forwarded[g], st.Evaluated)
		}
	}
	close(done)
}
