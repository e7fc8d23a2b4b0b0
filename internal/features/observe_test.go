package features

import (
	"bytes"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
	"github.com/ixp-scrubber/ixpscrubber/internal/woe"
)

// TestObserveRecordsMatchesObserveRecord locks the batched observation
// path to the single-record oracle: after Fit both encoders have the same
// fingerprint, save to the same bytes and encode every observed key of
// every domain to the same WoE. The batched side observes the window in
// two batches to show that batches compose.
func TestObserveRecordsMatchesObserveRecord(t *testing.T) {
	p := synth.ProfileUS1()
	p.Seed = 3
	balanced, _ := balance.Flows(3, synth.NewGenerator(p).Generate(0, 60))
	recs := synth.Records(balanced)
	if len(recs) < 1000 {
		t.Fatalf("window has %d records; too small", len(recs))
	}
	for _, tc := range []struct {
		name string
		recs []netflow.Record
	}{{"us1-synth", recs}, {"empty", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			newEnc := func() *woe.Encoder {
				e := woe.NewEncoder()
				e.MinCount = 4
				return e
			}
			one, batch := newEnc(), newEnc()
			for i := range tc.recs {
				ObserveRecord(one, &tc.recs[i])
			}
			half := len(tc.recs) / 3
			ObserveRecords(batch, tc.recs[:half])
			ObserveRecords(batch, tc.recs[half:])
			one.Fit()
			batch.Fit()

			if one.Fingerprint() != batch.Fingerprint() {
				t.Fatal("fingerprints differ")
			}
			var a, b bytes.Buffer
			if err := one.Save(&a); err != nil {
				t.Fatal(err)
			}
			if err := batch.Save(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("saved encoders differ")
			}
			for c := 0; c < NumCats; c++ {
				for i := range tc.recs {
					k := catKey(c, &tc.recs[i])
					if got, want := batch.WoE(CatNames[c], k), one.WoE(CatNames[c], k); got != want {
						t.Fatalf("%s: WoE(%d) = %v, want %v", CatNames[c], k, got, want)
					}
				}
			}
		})
	}
}
