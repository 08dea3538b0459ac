package analysis

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"ixplens/internal/core/dissect"
	"ixplens/internal/core/hetero"
	"ixplens/internal/entity"
	"ixplens/internal/packet"
)

// Links returns the §5 link-attribution analyzer. It aggregates every
// peering record by its flow identity — (src IP, dst IP, ingress
// member, egress member) — which is exactly the information
// hetero.LinkStats consumes per record: the Fig. 7 attribution for ANY
// organization's server set can be replayed from this one generic
// product, eliminating the bespoke second pass over the capture.
func Links() Analyzer { return linksAnalyzer{} }

type linksAnalyzer struct{}

func (linksAnalyzer) Name() string    { return NameLinks }
func (linksAnalyzer) Version() uint16 { return 1 }

func (linksAnalyzer) NewState(_ *Context, workers int) State {
	return &linksState{shards: make([]shardLog[Flow], workers)}
}

func (linksAnalyzer) Decode(version uint16, payload []byte) (Product, error) {
	return DecodeLinks(version, payload)
}

// FlowKey identifies one directed peering flow across the fabric.
type FlowKey struct {
	Src, Dst packet.IPv4Addr
	In, Out  int32
}

// Flow is one aggregated peering flow.
type Flow struct {
	FlowKey
	// Bytes is the represented traffic volume (sum of sample bytes).
	Bytes uint64
	// Samples counts the sFlow samples aggregated into this flow.
	Samples uint64
}

// linksState logs one single-sample Flow per peering record in the
// observing worker's shard; Finish sort-reduces the logs by FlowKey.
type linksState struct {
	shards []shardLog[Flow]
}

func (s *linksState) Observe(worker int, rec *dissect.Record, _ uint64) {
	if !rec.Class.IsPeering() {
		return
	}
	sh := &s.shards[worker]
	sh.log = append(sh.log, Flow{
		FlowKey: FlowKey{Src: rec.SrcIP, Dst: rec.DstIP, In: rec.InMember, Out: rec.OutMember},
		Bytes:   rec.Bytes,
		Samples: 1,
	})
}

func (s *linksState) Finish(int) (Product, error) {
	flows := sortReduce(s.shards, compareFlows, func(acc, f *Flow) bool {
		if acc.FlowKey != f.FlowKey {
			return false
		}
		acc.Bytes += f.Bytes
		acc.Samples += f.Samples
		return true
	})
	s.shards = nil // the logs are garbage once folded; free them early
	return &LinksProduct{Flows: flows}, nil
}

func compareFlows(a, b Flow) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.In, b.In); c != 0 {
		return c
	}
	return cmp.Compare(a.Out, b.Out)
}

// LinksProduct is the persisted flow aggregation, sorted by
// (Src, Dst, In, Out).
type LinksProduct struct {
	Flows []Flow
}

// AppendEncode appends the section payload:
//
//	links := nFlows:u32 (src:u32 dst:u32 in:u32 out:u32 bytes:u64 samples:u64)*
func (p *LinksProduct) AppendEncode(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Flows)))
	for i := range p.Flows {
		f := &p.Flows[i]
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Src))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Dst))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.In))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Out))
		dst = binary.BigEndian.AppendUint64(dst, f.Bytes)
		dst = binary.BigEndian.AppendUint64(dst, f.Samples)
	}
	return dst, nil
}

// linkRecordLen is the encoded size of one Flow.
const linkRecordLen = 32

// DecodeLinks parses a links section payload. Every field pattern is a
// valid flow, so a payload decodes exactly when its length is the
// 4-byte count plus count whole records.
func DecodeLinks(version uint16, payload []byte) (*LinksProduct, error) {
	if version != 1 {
		return nil, fmt.Errorf("%w: links v%d", ErrVersion, version)
	}
	body, n, err := fixedStride(payload, linkRecordLen)
	if err != nil {
		return nil, fmt.Errorf("%w: links: %v", ErrFormat, err)
	}
	out := &LinksProduct{Flows: make([]Flow, n)}
	for i := range out.Flows {
		rec := body[i*linkRecordLen : (i+1)*linkRecordLen]
		out.Flows[i] = Flow{
			FlowKey: FlowKey{
				Src: packet.IPv4Addr(binary.BigEndian.Uint32(rec[0:])),
				Dst: packet.IPv4Addr(binary.BigEndian.Uint32(rec[4:])),
				In:  int32(binary.BigEndian.Uint32(rec[8:])),
				Out: int32(binary.BigEndian.Uint32(rec[12:])),
			},
			Bytes:   binary.BigEndian.Uint64(rec[16:]),
			Samples: binary.BigEndian.Uint64(rec[24:]),
		}
	}
	return out, nil
}

// LinkStats replays the flows through hetero's per-flow attribution for
// one organization, reproducing the second-pass hetero.Attribute result
// exactly: every record of one flow key takes the same branch, so
// attributing the pre-summed flow is bit-identical to attributing each
// record.
func (p *LinksProduct) LinkStats(homeMember int32, table *entity.Table, isServer func(packet.IPv4Addr) bool) *hetero.LinkStats {
	ls := hetero.NewLinkStatsWith(homeMember, table)
	for i := range p.Flows {
		f := &p.Flows[i]
		ls.ObserveFlow(f.Src, f.Dst, f.In, f.Out, f.Bytes, isServer)
	}
	return ls
}

// MemberLink is one member-pair aggregate of the fabric's peering
// traffic.
type MemberLink struct {
	In, Out int32
	Bytes   uint64
	Samples uint64
}

// TopMemberLinks aggregates the flows by (ingress, egress) member pair
// and returns the k heaviest, bytes descending then (In, Out)
// ascending. k <= 0 returns all pairs.
func (p *LinksProduct) TopMemberLinks(k int) []MemberLink {
	// The map holds each pair's index in out, keyed on the pair packed
	// into one uint64.
	index := make(map[uint64]int)
	var out []MemberLink
	for i := range p.Flows {
		f := &p.Flows[i]
		key := uint64(uint32(f.In))<<32 | uint64(uint32(f.Out))
		j, ok := index[key]
		if !ok {
			j = len(out)
			index[key] = j
			out = append(out, MemberLink{In: f.In, Out: f.Out})
		}
		out[j].Bytes += f.Bytes
		out[j].Samples += f.Samples
	}
	slices.SortFunc(out, func(a, b MemberLink) int {
		if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
			return c
		}
		if c := cmp.Compare(a.In, b.In); c != 0 {
			return c
		}
		return cmp.Compare(a.Out, b.Out)
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}
