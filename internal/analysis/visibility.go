package analysis

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"ixplens/internal/core/dissect"
	"ixplens/internal/core/visibility"
	"ixplens/internal/entity"
	"ixplens/internal/packet"
)

// Visibility returns the §3 visibility analyzer. Each worker logs one
// (IP, bytes) entry per endpoint of every peering record it observes;
// Finish sort-reduces the logs into the per-IP byte accumulation —
// everything the Table 1–3 and Fig. 2–3 views derive from — encoded as
// an IP-sorted list, so the same observations always yield the same
// bytes regardless of worker partitioning. The analyzer interns
// nothing: the entity table only comes in when a view is derived from
// the product (VisibilityProduct.Aggregator).
func Visibility() Analyzer { return visibilityAnalyzer{} }

type visibilityAnalyzer struct{}

func (visibilityAnalyzer) Name() string    { return NameVisibility }
func (visibilityAnalyzer) Version() uint16 { return 1 }

func (visibilityAnalyzer) NewState(_ *Context, workers int) State {
	return &visibilityState{shards: make([]shardLog[visibility.IPTraffic], workers)}
}

func (visibilityAnalyzer) Decode(version uint16, payload []byte) (Product, error) {
	return DecodeVisibility(version, payload)
}

type visibilityState struct {
	shards []shardLog[visibility.IPTraffic]
}

// Observe credits each endpoint of a peering record with its bytes; a
// self-addressed record (SrcIP == DstIP) credits that IP once, exactly
// like visibility.Aggregator.Observe.
func (s *visibilityState) Observe(worker int, rec *dissect.Record, _ uint64) {
	if !rec.Class.IsPeering() {
		return
	}
	sh := &s.shards[worker]
	sh.log = append(sh.log, visibility.IPTraffic{IP: rec.SrcIP, Bytes: rec.Bytes})
	if rec.DstIP != rec.SrcIP {
		sh.log = append(sh.log, visibility.IPTraffic{IP: rec.DstIP, Bytes: rec.Bytes})
	}
}

func (s *visibilityState) Finish(int) (Product, error) {
	perIP := sortReduce(s.shards, func(a, b visibility.IPTraffic) int {
		return cmp.Compare(a.IP, b.IP)
	}, func(acc, e *visibility.IPTraffic) bool {
		if acc.IP != e.IP {
			return false
		}
		acc.Bytes += e.Bytes
		return true
	})
	s.shards = nil // the logs are garbage once folded; free them early
	return &VisibilityProduct{PerIP: perIP}, nil
}

// VisibilityProduct is the persisted per-IP traffic accumulation,
// sorted by IP. Zero-byte entries are kept: an observed IP counts in
// the Table 1 totals even when its sampled frames carried no payload
// bytes.
type VisibilityProduct struct {
	PerIP []visibility.IPTraffic
}

// AppendEncode appends the section payload:
//
//	visibility := nIPs:u32 (ip:u32 bytes:u64)*   — sorted by IP
func (p *VisibilityProduct) AppendEncode(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.PerIP)))
	for i := range p.PerIP {
		e := &p.PerIP[i]
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.IP))
		dst = binary.BigEndian.AppendUint64(dst, e.Bytes)
	}
	return dst, nil
}

// visibilityRecordLen is the encoded size of one IPTraffic entry.
const visibilityRecordLen = 12

// DecodeVisibility parses a visibility section payload. Every field
// pattern is a valid entry, so a payload decodes exactly when its
// length is the 4-byte count plus count whole records.
func DecodeVisibility(version uint16, payload []byte) (*VisibilityProduct, error) {
	if version != 1 {
		return nil, fmt.Errorf("%w: visibility v%d", ErrVersion, version)
	}
	body, n, err := fixedStride(payload, visibilityRecordLen)
	if err != nil {
		return nil, fmt.Errorf("%w: visibility: %v", ErrFormat, err)
	}
	out := &VisibilityProduct{PerIP: make([]visibility.IPTraffic, n)}
	for i := range out.PerIP {
		rec := body[i*visibilityRecordLen : (i+1)*visibilityRecordLen]
		out.PerIP[i] = visibility.IPTraffic{
			IP:    packet.IPv4Addr(binary.BigEndian.Uint32(rec[0:])),
			Bytes: binary.BigEndian.Uint64(rec[4:]),
		}
	}
	return out, nil
}

// Aggregator rebuilds a visibility aggregator from the product, so
// every derived view (Summarize, TopCountries, LocalGlobal, ...) works
// off a reloaded snapshot exactly as off a live pass — those views are
// iteration-order-independent, which the package's equivalence tests
// pin.
func (p *VisibilityProduct) Aggregator(table *entity.Table) *visibility.Aggregator {
	a := visibility.NewAggregatorWith(table)
	for i := range p.PerIP {
		a.Add(p.PerIP[i].IP, p.PerIP[i].Bytes)
	}
	return a
}

// ObservedIPs is the number of distinct endpoint IPs in the product.
func (p *VisibilityProduct) ObservedIPs() int { return len(p.PerIP) }

// TotalBytes sums the per-IP accumulation (each record credits both
// endpoints, so this is roughly twice the wire volume).
func (p *VisibilityProduct) TotalBytes() uint64 {
	var sum uint64
	for i := range p.PerIP {
		sum += p.PerIP[i].Bytes
	}
	return sum
}
