// Package tagging implements Step 1 of the IXP Scrubber model (§5.1):
// association rule mining over discretized flow headers with the
// {blackhole} consequent, FP-Growth frequent itemset mining, the rule set
// minimization of Algorithm 1, operator curation states, and the JSON
// import/export format of the released rule list.
package tagging

import (
	"fmt"
	"strings"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// Field identifies one discretized header attribute.
type Field uint8

// Discretized header fields, the antecedent vocabulary of tagging rules.
const (
	FieldProtocol Field = iota + 1
	FieldSrcPort
	FieldDstPort
	FieldSize
	FieldFragment
	fieldLabel // internal: the {blackhole} consequent
)

// String returns the column name used in the rule UI and JSON export.
func (f Field) String() string {
	switch f {
	case FieldProtocol:
		return "protocol"
	case FieldSrcPort:
		return "port_src"
	case FieldDstPort:
		return "port_dst"
	case FieldSize:
		return "packet_size"
	case FieldFragment:
		return "fragment"
	case fieldLabel:
		return "blackhole"
	default:
		return fmt.Sprintf("field(%d)", uint8(f))
	}
}

// Item is one (field, value) pair, packed for use as a map key and cheap
// comparison. The top byte is the Field, the low 24 bits the value.
type Item uint32

// NewItem packs a field and value.
func NewItem(f Field, v uint32) Item { return Item(uint32(f)<<24 | v&0xFFFFFF) }

// Field returns the item's field.
func (it Item) Field() Field { return Field(it >> 24) }

// Value returns the item's 24-bit value.
func (it Item) Value() uint32 { return uint32(it) & 0xFFFFFF }

// Port classes: ports outside the retained set collapse into one class, the
// analog of the released rules' negated port sets ("~{0,17,19,...}"): the
// traffic is sprayed over arbitrary, unpopular ports.
const (
	// PortOther is the value of a port item for an unretained port.
	PortOther uint32 = 0xFFFFFE
)

// SizeBinWidth is the width of packet size bins in bytes; the released
// rules use intervals like "(400,500]".
const SizeBinWidth = 100

// labelItem is the consequent item.
const labelItem = Item(uint32(fieldLabel)<<24 | 1)

// retainedPorts is the set of port values kept literal during
// discretization: well-known service ports plus the DDoS catalog ports.
var retainedPorts = func() map[uint16]bool {
	m := make(map[uint16]bool)
	for p := uint16(0); p < 1024; p++ {
		m[p] = true
	}
	for _, p := range []uint16{1194, 1434, 1900, 1935, 2048, 3283, 3389, 3702,
		4500, 5060, 8080, 8443, 10001, 11211, 27015} {
		m[p] = true
	}
	return m
}()

// Port classes index the discretized port values densely: class 0 is
// PortOther and the following classes are the retained ports in
// ascending order. portClass maps every port to its class, built once from
// retainedPorts, so discretizing a port is two array loads instead of a map
// probe; the compiled Tagger keys its port tables on the class.
var (
	portClass      [65536]uint16
	portClassValue = []uint32{PortOther}
)

func init() {
	for p := 0; p <= 65535; p++ {
		if retainedPorts[uint16(p)] {
			portClass[p] = uint16(len(portClassValue))
			portClassValue = append(portClassValue, uint32(p))
		}
	}
}

// classOfPortValue returns the class of a discretized port value, or false
// for a value no port discretizes to (an unretained literal, or anything
// above the port range other than PortOther).
func classOfPortValue(v uint32) (uint16, bool) {
	if v == PortOther {
		return 0, true
	}
	if v > 65535 || portClass[v] == 0 {
		return 0, false
	}
	return portClass[v], true
}

// portValue discretizes a port.
func portValue(p uint16) uint32 { return portClassValue[portClass[p]] }

// PortValue discretizes a port: retained ports stay literal, everything
// else collapses into PortOther. Exported for the compiled mitigation fast
// path (internal/dropper), which must discretize bit-identically to the
// rule interpreter.
func PortValue(p uint16) uint32 { return portValue(p) }

// SizeValue is the integer mean packet size that SizeBin bins: negative
// sizes clamp to 0, everything else truncates toward zero. The dropper's
// packet-size range table is keyed on this value so both paths share one
// float64→uint32 conversion; any drift here breaks their bit-for-bit
// equivalence.
func SizeValue(meanSize float64) uint32 {
	if meanSize < 0 {
		return 0
	}
	return uint32(meanSize)
}

// SizeBin returns the packet size bin index of a mean packet size.
func SizeBin(meanSize float64) uint32 { return sizeBin(meanSize) }

// sizeBin returns the packet size bin index of a mean packet size.
func sizeBin(meanSize float64) uint32 {
	b := SizeValue(meanSize) / SizeBinWidth
	if b > 15 {
		b = 15
	}
	return b
}

// SizeBinLabel formats a bin as the half-open interval used by the UI.
func SizeBinLabel(bin uint32) string {
	lo := bin * SizeBinWidth
	hi := lo + SizeBinWidth
	if bin == 15 {
		return fmt.Sprintf("(%d,inf)", lo)
	}
	return fmt.Sprintf("(%d,%d]", lo, hi)
}

// Itemize discretizes one flow record into its antecedent items. The item
// slice is sorted and deduplicated; the label is returned separately.
func Itemize(r *netflow.Record, dst []Item) ([]Item, bool) {
	dst = dst[:0]
	// Items sort by field first, so appending one item per field in Field
	// order yields the sorted, duplicate-free slice without a sort.
	dst = append(dst, NewItem(FieldProtocol, uint32(r.Protocol)))
	if !r.Fragment {
		dst = append(dst,
			NewItem(FieldSrcPort, portValue(r.SrcPort)),
			NewItem(FieldDstPort, portValue(r.DstPort)),
		)
	}
	dst = append(dst, NewItem(FieldSize, sizeBin(r.MeanPacketSize())))
	if r.Fragment {
		dst = append(dst, NewItem(FieldFragment, 1))
	}
	return dst, r.Blackholed
}

// ItemString formats one item for display (e.g. "port_src=123",
// "packet_size=(400,500]", "port_dst=~popular").
func ItemString(it Item) string {
	switch it.Field() {
	case FieldSize:
		return fmt.Sprintf("packet_size=%s", SizeBinLabel(it.Value()))
	case FieldSrcPort, FieldDstPort:
		if it.Value() == PortOther {
			return fmt.Sprintf("%s=~popular", it.Field())
		}
		return fmt.Sprintf("%s=%d", it.Field(), it.Value())
	case FieldFragment:
		return "fragment=true"
	default:
		return fmt.Sprintf("%s=%d", it.Field(), it.Value())
	}
}

// ItemsString joins an antecedent for display.
func ItemsString(items []Item) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = ItemString(it)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// MatchRecord reports whether every item of the antecedent holds for the
// record's discretization.
func MatchRecord(antecedent []Item, r *netflow.Record) bool {
	for _, it := range antecedent {
		switch it.Field() {
		case FieldProtocol:
			if uint32(r.Protocol) != it.Value() {
				return false
			}
		case FieldSrcPort:
			if r.Fragment || portValue(r.SrcPort) != it.Value() {
				return false
			}
		case FieldDstPort:
			if r.Fragment || portValue(r.DstPort) != it.Value() {
				return false
			}
		case FieldSize:
			if sizeBin(r.MeanPacketSize()) != it.Value() {
				return false
			}
		case FieldFragment:
			if !r.Fragment {
				return false
			}
		default:
			return false
		}
	}
	return true
}
