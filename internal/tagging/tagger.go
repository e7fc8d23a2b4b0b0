package tagging

import (
	"math/bits"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// Tagger matches flows against a set of accepted rules. It is the flow
// tagging step preserved through aggregation (§5.1) and the basis of both
// the RBC baseline classifier and ACL generation.
//
// NewTagger compiles the rules into per-dimension rule bitsets: for each
// value of a dimension (protocol, src port class, dst port class, size bin,
// fragment flag) a row of words with bit i set when rule i's condition on
// that dimension holds. A record's matching rules are the AND of its five
// rows, so matching costs a handful of table loads and word ANDs whatever
// the rule count. The semantics are exactly MatchRecord's, which stays as
// the reference: port conditions never hold on fragments, a rule carrying
// two values for one field or an unknown field matches nothing, and a
// literal port that is not retained never matches.
type Tagger struct {
	rules []Rule
	words int // words per row: ceil(len(rules)/64)

	proto []uint64 // 256 rows, one per protocol number
	size  []uint64 // 16 rows, one per size bin
	frag  []uint64 // 2 rows: unfragmented, fragmented
	// srcRow/dstRow map a port class to a row of srcSets/dstSets. Row 0
	// holds the rules without a condition on that port: the row of every
	// class no rule names, and of fragmented records.
	srcRow, dstRow   []uint16
	srcSets, dstSets []uint64
}

// NewTagger compiles a Tagger over the given rules (typically
// RuleSet.Accepted()).
func NewTagger(rules []Rule) *Tagger {
	n := len(rules)
	w := (n + 63) / 64
	t := &Tagger{
		rules: append([]Rule(nil), rules...),
		words: w,
		proto: make([]uint64, 256*w),
		size:  make([]uint64, 16*w),
		frag:  make([]uint64, 2*w),
	}
	src := newPortDim(w)
	dst := newPortDim(w)
	for i := range t.rules {
		var c ruleConds
		if !c.parse(t.rules[i].Antecedent) {
			continue // matches nothing: its bit stays clear in the frag rows
		}
		word, bit := i>>6, uint64(1)<<(i&63)
		setRows(t.proto, w, word, bit, c.proto, 256)
		setRows(t.size, w, word, bit, c.size, 16)
		t.frag[w+word] |= bit
		if c.fragment == nil {
			t.frag[word] |= bit
		}
		src.add(i, c.src)
		dst.add(i, c.dst)
	}
	t.srcRow, t.srcSets = src.finish()
	t.dstRow, t.dstSets = dst.finish()
	return t
}

// ruleConds is one antecedent's condition per dimension; nil means the
// dimension is unconstrained.
type ruleConds struct {
	proto, size, src, dst, fragment *uint32
}

// parse collects the antecedent's conditions. It reports false when the
// antecedent can match nothing: two different values for one field, an
// unknown field, a protocol or size bin out of range, or a port value no
// port discretizes to. A port condition together with the fragment
// requirement needs no check here: the port rows of a fragmented record
// and the frag row of an unfragmented one each exclude such a rule.
func (c *ruleConds) parse(antecedent []Item) bool {
	for _, it := range antecedent {
		v := it.Value()
		var slot **uint32
		switch it.Field() {
		case FieldProtocol:
			slot = &c.proto
		case FieldSrcPort:
			slot = &c.src
		case FieldDstPort:
			slot = &c.dst
		case FieldSize:
			slot = &c.size
		case FieldFragment:
			// MatchRecord tests only the record's flag, whatever the value.
			v = 1
			slot = &c.fragment
		default:
			return false
		}
		if *slot != nil && **slot != v {
			return false
		}
		*slot = &v
	}
	if c.proto != nil && *c.proto > 255 || c.size != nil && *c.size > 15 {
		return false
	}
	for _, p := range []*uint32{c.src, c.dst} {
		if p == nil {
			continue
		}
		if _, ok := classOfPortValue(*p); !ok {
			return false
		}
	}
	return true
}

// setRows sets rule bit (word, bit) in every one of the rows rows of table,
// or only in row *only when the dimension is constrained.
func setRows(table []uint64, w, word int, bit uint64, only *uint32, rows int) {
	if only != nil {
		table[int(*only)*w+word] |= bit
		return
	}
	for r := 0; r < rows; r++ {
		table[r*w+word] |= bit
	}
}

// portDim builds one port dimension: a row per distinct port class some
// rule names, on top of row 0 (rules without a condition on the port).
type portDim struct {
	w     int
	wild  []uint64
	named map[uint16][]int // class -> rules requiring it
}

func newPortDim(w int) *portDim {
	return &portDim{w: w, wild: make([]uint64, w), named: make(map[uint16][]int)}
}

func (d *portDim) add(rule int, cond *uint32) {
	if cond == nil {
		d.wild[rule>>6] |= 1 << (rule & 63)
		return
	}
	class, _ := classOfPortValue(*cond)
	d.named[class] = append(d.named[class], rule)
}

// finish lays the rows out, named classes in ascending class order so the
// layout does not depend on map iteration.
func (d *portDim) finish() ([]uint16, []uint64) {
	row := make([]uint16, len(portClassValue))
	sets := append([]uint64(nil), d.wild...)
	for class := range row {
		idxs, ok := d.named[uint16(class)]
		if !ok {
			continue
		}
		row[class] = uint16(len(sets) / d.w)
		base := len(sets)
		sets = append(sets, d.wild...)
		for _, i := range idxs {
			sets[base+i>>6] |= 1 << (i & 63)
		}
	}
	return row, sets
}

// Rules returns the tagger's rules.
func (t *Tagger) Rules() []Rule { return t.rules }

// rows returns the record's five dimension rows.
func (t *Tagger) rows(rec *netflow.Record) (p, s, d, z, f []uint64) {
	w := t.words
	p = t.proto[int(rec.Protocol)*w:][:w]
	z = t.size[int(sizeBin(rec.MeanPacketSize()))*w:][:w]
	if rec.Fragment {
		s, d, f = t.srcSets[:w], t.dstSets[:w], t.frag[w:2*w]
	} else {
		s = t.srcSets[int(t.srcRow[portClass[rec.SrcPort]])*w:][:w]
		d = t.dstSets[int(t.dstRow[portClass[rec.DstPort]])*w:][:w]
		f = t.frag[:w]
	}
	return
}

// Match appends the indices (into Rules()) of every rule matching the
// record, in ascending order, and returns the slice.
func (t *Tagger) Match(rec *netflow.Record, dst []int) []int {
	p, s, d, z, f := t.rows(rec)
	for i := range p {
		x := p[i] & s[i] & d[i] & z[i] & f[i]
		for x != 0 {
			dst = append(dst, i<<6|bits.TrailingZeros64(x))
			x &= x - 1
		}
	}
	return dst
}

// Matches reports whether any rule matches the record.
func (t *Tagger) Matches(rec *netflow.Record) bool {
	p, s, d, z, f := t.rows(rec)
	for i := range p {
		if p[i]&s[i]&d[i]&z[i]&f[i] != 0 {
			return true
		}
	}
	return false
}
