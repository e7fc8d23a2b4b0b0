package tagging

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// syntheticRecords is a balanced four-hour IXP-US1 window (~73k records at
// seed 7).
func syntheticRecords(seed uint64) []netflow.Record {
	p := synth.ProfileUS1()
	p.Seed = seed
	flows := synth.NewGenerator(p).Generate(0, 240)
	balanced, _ := balance.Flows(seed, flows)
	return synth.Records(balanced)
}

// perRecordTransactions is Mine's front end before weighting: one unit
// transaction per record. It is the oracle for weightedTransactions.
func perRecordTransactions(records []netflow.Record) []Transaction {
	txs := make([]Transaction, len(records))
	var buf []Item
	for i := range records {
		items, bh := Itemize(&records[i], buf)
		txs[i] = Transaction{Items: append([]Item(nil), items...), Blackholed: bh}
	}
	return txs
}

// expand repeats every transaction Count times (once for Count 0) as unit
// transactions.
func expand(txs []Transaction) []Transaction {
	var out []Transaction
	for _, tx := range txs {
		for c := 0; c < tx.weight(); c++ {
			out = append(out, Transaction{Items: tx.Items, Blackholed: tx.Blackholed})
		}
	}
	return out
}

// checkSameMining requires two mining results to agree rule by rule, in
// order and to the bit, and in their reports.
func checkSameMining(t *testing.T, got []Rule, gotRep MiningReport, want []Rule, wantRep MiningReport) {
	t.Helper()
	if gotRep != wantRep {
		t.Fatalf("mining report %+v, want %+v", gotRep, wantRep)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rules, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.ID != w.ID || !slices.Equal(g.Antecedent, w.Antecedent) ||
			math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) ||
			math.Float64bits(g.Support) != math.Float64bits(w.Support) ||
			g.Status != w.Status {
			t.Fatalf("rule %d = %s %s, want %s %s", i, g.ID, g, w.ID, w)
		}
	}
}

// handBuiltTransactions covers the weighting edge cases: Count 0 and 1, one
// itemization under both labels, and fragment itemizations.
func handBuiltTransactions() []Transaction {
	udp, tcp := NewItem(FieldProtocol, 17), NewItem(FieldProtocol, 6)
	ntp, dns, https := NewItem(FieldSrcPort, 123), NewItem(FieldSrcPort, 53), NewItem(FieldSrcPort, 443)
	srcOther, dstOther := NewItem(FieldSrcPort, PortOther), NewItem(FieldDstPort, PortOther)
	s1, s4, s14 := NewItem(FieldSize, 1), NewItem(FieldSize, 4), NewItem(FieldSize, 14)
	frag := NewItem(FieldFragment, 1)
	return []Transaction{
		{Items: []Item{udp, ntp, dstOther, s4}, Blackholed: true, Count: 40},
		{Items: []Item{udp, ntp, dstOther, s4}, Blackholed: false, Count: 3},
		{Items: []Item{udp, s14, frag}, Blackholed: true, Count: 25},
		{Items: []Item{udp, s14, frag}, Blackholed: false},
		{Items: []Item{udp, s4, frag}, Blackholed: true, Count: 1},
		{Items: []Item{tcp, https, dstOther, s1}, Blackholed: false, Count: 60},
		{Items: []Item{tcp, srcOther, dstOther, s1}, Blackholed: false},
		{Items: []Item{udp, dns, dstOther, s4}, Blackholed: false, Count: 7},
		{Items: []Item{udp, dns, dstOther, s4}, Blackholed: true, Count: 1},
		{Items: []Item{udp, ntp, dstOther, s4}, Blackholed: true},
	}
}

// edgeWindow repeats the edge records under both labels, blackholed more
// often than not, so the window mines rules over fragments, zero-packet
// records and every port class.
func edgeWindow() []netflow.Record {
	var recs []netflow.Record
	for i, r := range edgeRecords() {
		for c := 0; c < 3+i%4; c++ {
			r.Blackholed = c%3 != 2
			recs = append(recs, r)
		}
	}
	return recs
}

// TestMineWeightedMatchesExpanded proves that weighting is invisible in the
// output: mining weighted transactions yields the itemsets, rules (IDs,
// antecedents, confidence and support bits, order) and report of the same
// input expanded into unit copies, and Mine's deduplicating front end
// matches the one-transaction-per-record construction it replaced.
func TestMineWeightedMatchesExpanded(t *testing.T) {
	cases := []struct {
		name     string
		txs      []Transaction
		minCount int
	}{
		{"us1-synth", weightedTransactions(syntheticRecords(7)), 20},
		{"hand-built", handBuiltTransactions(), 2},
		{"edge-records", weightedTransactions(edgeWindow()), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			expanded := expand(c.txs)
			for _, workers := range []int{1, 2, 8} {
				opts := DefaultMineOptions()
				opts.MinSupportCount = c.minCount
				opts.Workers = workers
				got, gotRep := MineTransactions(c.txs, opts)
				want, wantRep := MineTransactions(expanded, opts)
				if len(want) == 0 {
					t.Fatal("expanded input mined no rules; the case has no teeth")
				}
				if wantRep.Transactions != len(expanded) {
					t.Fatalf("report counts %d transactions, want %d records", wantRep.Transactions, len(expanded))
				}
				checkSameMining(t, got, gotRep, want, wantRep)
				if !reflect.DeepEqual(MineFrequentWorkers(c.txs, c.minCount, workers),
					MineFrequentWorkers(expanded, c.minCount, workers)) {
					t.Fatalf("workers=%d: frequent itemsets differ", workers)
				}
			}
		})
	}

	t.Run("count-zero-is-one", func(t *testing.T) {
		txs := handBuiltTransactions()
		ones := slices.Clone(txs)
		for i := range ones {
			if ones[i].Count == 0 {
				ones[i].Count = 1
			}
		}
		opts := DefaultMineOptions()
		opts.MinSupportCount = 2
		got, gotRep := MineTransactions(txs, opts)
		want, wantRep := MineTransactions(ones, opts)
		checkSameMining(t, got, gotRep, want, wantRep)
	})

	t.Run("one-itemization-both-labels", func(t *testing.T) {
		r := ntpRecord(true)
		recs := []netflow.Record{r, r, r}
		r.Blackholed = false
		recs = append(recs, r)
		txs := weightedTransactions(recs)
		if len(txs) != 2 || !txs[0].Blackholed || txs[0].Count != 3 || txs[1].Blackholed || txs[1].Count != 1 {
			t.Fatalf("transactions = %+v, want the blackholed one (3) then the other (1)", txs)
		}
		if !slices.Equal(txs[0].Items, txs[1].Items) {
			t.Fatalf("items differ: %s vs %s", ItemsString(txs[0].Items), ItemsString(txs[1].Items))
		}
	})

	t.Run("fragments", func(t *testing.T) {
		recs := edgeWindow()
		txs := weightedTransactions(recs)
		frags := 0
		for _, tx := range txs {
			if slices.Contains(tx.Items, NewItem(FieldFragment, 1)) {
				frags++
				if len(tx.Items) != 3 {
					t.Errorf("fragment itemization %s, want protocol, size and fragment", ItemsString(tx.Items))
				}
			}
		}
		if frags == 0 {
			t.Fatal("edge window has no fragment transactions")
		}
	})

	for _, seed := range []uint64{7, 8, 9} {
		t.Run(fmt.Sprintf("Mine/seed=%d", seed), func(t *testing.T) {
			records := syntheticRecords(seed)
			oracle := perRecordTransactions(records)
			for _, workers := range []int{1, 2, 8} {
				opts := DefaultMineOptions()
				opts.Workers = workers
				got, gotRep := Mine(records, opts)
				want, wantRep := MineTransactions(oracle, opts)
				if len(want) == 0 {
					t.Fatal("oracle mined no rules")
				}
				checkSameMining(t, got, gotRep, want, wantRep)
			}
		})
	}
	t.Run("Mine/edge-records", func(t *testing.T) {
		records := edgeWindow()
		opts := DefaultMineOptions()
		opts.MinSupportCount = 2
		got, gotRep := Mine(records, opts)
		want, wantRep := MineTransactions(perRecordTransactions(records), opts)
		checkSameMining(t, got, gotRep, want, wantRep)
	})
}

// TestMineAllocs pins Mine well below one allocation per record: the
// window collapses into about a thousand weighted transactions, so the
// allocations scale with the distinct itemizations and mined itemsets, not
// with the records (~25k on this ~73k-record window).
func TestMineAllocs(t *testing.T) {
	records := syntheticRecords(7)
	opts := DefaultMineOptions()
	opts.Workers = 1
	allocs := testing.AllocsPerRun(2, func() { Mine(records, opts) })
	if limit := float64(len(records)) / 2; allocs > limit {
		t.Errorf("Mine allocates %.0f times on %d records, want at most %.0f", allocs, len(records), limit)
	}
}
