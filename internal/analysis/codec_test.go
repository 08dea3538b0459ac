package analysis

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ixplens/internal/certsim"
	"ixplens/internal/core/visibility"
	"ixplens/internal/core/webserver"
	"ixplens/internal/packet"
)

// cursorLinks and cursorVisibility are the field-by-field Cursor
// decoders the fixed-stride ones replaced, kept as the reference for
// what a payload must decode to and which payloads must be rejected.
func cursorLinks(payload []byte) (*LinksProduct, error) {
	cur := NewCursor(payload)
	n := int(cur.U32())
	if cur.Bad() || n > cur.Len() {
		return nil, ErrFormat
	}
	out := &LinksProduct{Flows: make([]Flow, n)}
	for i := range out.Flows {
		f := &out.Flows[i]
		f.Src = packet.IPv4Addr(cur.U32())
		f.Dst = packet.IPv4Addr(cur.U32())
		f.In = int32(cur.U32())
		f.Out = int32(cur.U32())
		f.Bytes = cur.U64()
		f.Samples = cur.U64()
	}
	if cur.Bad() || cur.Len() != 0 {
		return nil, ErrFormat
	}
	return out, nil
}

func cursorVisibility(payload []byte) (*VisibilityProduct, error) {
	cur := NewCursor(payload)
	n := int(cur.U32())
	if cur.Bad() || n > cur.Len() {
		return nil, ErrFormat
	}
	out := &VisibilityProduct{PerIP: make([]visibility.IPTraffic, n)}
	for i := range out.PerIP {
		out.PerIP[i].IP = packet.IPv4Addr(cur.U32())
		out.PerIP[i].Bytes = cur.U64()
	}
	if cur.Bad() || cur.Len() != 0 {
		return nil, ErrFormat
	}
	return out, nil
}

// TestFixedStrideDecoders: for every payload length from 0 to one
// record past a valid 3-record payload, and for several declared
// counts, each fixed-stride decoder accepts exactly when
// len == 4 + count*stride, fails with ErrFormat otherwise, and agrees
// with the Cursor reference on both the verdict and the decoded value.
func TestFixedStrideDecoders(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stride int
		decode func([]byte) (interface{}, error)
		ref    func([]byte) (interface{}, error)
	}{
		{"links", linkRecordLen,
			func(b []byte) (interface{}, error) { return DecodeLinks(1, b) },
			func(b []byte) (interface{}, error) { return cursorLinks(b) }},
		{"visibility", visibilityRecordLen,
			func(b []byte) (interface{}, error) { return DecodeVisibility(1, b) },
			func(b []byte) (interface{}, error) { return cursorVisibility(b) }},
	} {
		const records = 3
		full := make([]byte, 4+(records+1)*tc.stride)
		for i := range full {
			full[i] = byte(i*37 + 11)
		}
		for _, count := range []uint32{0, 1, 2, records, records + 1, 1 << 31, 1<<32 - 1} {
			binary.BigEndian.PutUint32(full, count)
			for n := 0; n <= len(full); n++ {
				payload := full[:n]
				got, err := tc.decode(payload)
				want, wantErr := tc.ref(payload)
				accept := uint64(n) == 4+uint64(count)*uint64(tc.stride)
				if (err == nil) != accept {
					t.Fatalf("%s: count %d, len %d: err %v, want accept=%v", tc.name, count, n, err, accept)
				}
				if err != nil && !errors.Is(err, ErrFormat) {
					t.Fatalf("%s: count %d, len %d: %v is not ErrFormat", tc.name, count, n, err)
				}
				if (wantErr == nil) != accept {
					t.Fatalf("%s: reference disagrees at count %d, len %d", tc.name, count, n)
				}
				if accept && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: count %d: decoded %+v, reference %+v", tc.name, count, got, want)
				}
			}
		}
	}
}

func aliasResult() *webserver.Result {
	res := &webserver.Result{
		Week: 45, Servers: map[packet.IPv4Addr]*webserver.Server{},
		Candidates443: 3, Responded443: 2, Valid443: 1, TotalIPs: 99, ServerBytes: 1 << 33,
	}
	for i := 0; i < 40; i++ {
		ip := packet.MakeIPv4(10, 1, byte(i/8), byte(i))
		s := &webserver.Server{IP: ip, HTTP: i%2 == 0, HTTPS: i%3 == 0, Bytes: uint64(i * 1000), Member: int32(i - 5)}
		if i%4 != 0 {
			s.Ports = []uint16{80, uint16(8000 + i)}
			s.Hosts = []string{fmt.Sprintf("h%d.example", i), fmt.Sprintf("www.h%d.example", i)}
		}
		if s.HTTPS {
			s.Cert = certsim.Info{Subject: fmt.Sprintf("cert%d.example", i)}
			if i%2 == 0 {
				s.Cert.AltNames = []string{"alt.example", ""}
			}
		}
		res.Servers[ip] = s
	}
	return res
}

// TestReadResultOwnsItsStrings: the decoded hosts, subjects and alt
// names stay intact after the input buffer is overwritten, so a decoded
// snapshot never pins or shares the file buffer; and the per-server
// lists, though carved from shared chunks, are independent.
func TestReadResultOwnsItsStrings(t *testing.T) {
	res := aliasResult()
	buf, err := AppendResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("decoded result changed when the input buffer was overwritten")
	}
	// The lists share chunks, but each is capped at its own length:
	// appending to one server's lists must not reach another's.
	for _, s := range got.Servers {
		s.Ports = append(s.Ports, 1)
		s.Hosts = append(s.Hosts, "x")
		s.Cert.AltNames = append(s.Cert.AltNames, "y")
	}
	for ip, s := range got.Servers {
		want := res.Servers[ip]
		if !slices.Equal(s.Ports, append(slices.Clone(want.Ports), 1)) ||
			!slices.Equal(s.Hosts, append(slices.Clone(want.Hosts), "x")) ||
			!slices.Equal(s.Cert.AltNames, append(slices.Clone(want.Cert.AltNames), "y")) {
			t.Fatalf("server %v: an append reached a neighbouring list", ip)
		}
	}
}

// TestReadResultRejectsDamage: every proper prefix, a trailing byte and
// a server count past what the payload can hold all fail with
// ErrFormat.
func TestReadResultRejectsDamage(t *testing.T) {
	buf, err := AppendResult(nil, aliasResult())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(buf); n++ {
		if _, err := DecodeResult(1, buf[:n]); !errors.Is(err, ErrFormat) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrFormat", n, err)
		}
	}
	if _, err := DecodeResult(1, append(bytes.Clone(buf), 0)); !errors.Is(err, ErrFormat) {
		t.Fatalf("trailing byte: got %v, want ErrFormat", err)
	}
	const countAt = 4 + 8 + 4*8 + 8
	for _, count := range []uint32{41, 1000, 1<<32 - 1} {
		bad := bytes.Clone(buf)
		binary.BigEndian.PutUint32(bad[countAt:], count)
		if _, err := DecodeResult(1, bad); !errors.Is(err, ErrFormat) {
			t.Fatalf("server count %d: got %v, want ErrFormat", count, err)
		}
	}
}

// TestTopMemberLinks checks the packed-key aggregation against a
// struct-keyed reference, including negative member indices (whose
// sign bits must not leak into the other half of the key) and every k.
func TestTopMemberLinks(t *testing.T) {
	members := []int32{-1, 0, 1, 7, 1 << 30, -1 << 31}
	var p LinksProduct
	for i := 0; i < 300; i++ {
		p.Flows = append(p.Flows, Flow{
			FlowKey: FlowKey{Src: packet.IPv4Addr(i), In: members[i%len(members)], Out: members[(i/7)%len(members)]},
			Bytes:   uint64(i % 5 * 100), Samples: uint64(i%3 + 1),
		})
	}
	type pair struct{ in, out int32 }
	sums := map[pair]*MemberLink{}
	for _, f := range p.Flows {
		ml := sums[pair{f.In, f.Out}]
		if ml == nil {
			ml = &MemberLink{In: f.In, Out: f.Out}
			sums[pair{f.In, f.Out}] = ml
		}
		ml.Bytes += f.Bytes
		ml.Samples += f.Samples
	}
	var want []MemberLink
	for _, ml := range sums {
		want = append(want, *ml)
	}
	slices.SortFunc(want, func(a, b MemberLink) int {
		if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
			return c
		}
		if c := cmp.Compare(a.In, b.In); c != 0 {
			return c
		}
		return cmp.Compare(a.Out, b.Out)
	})
	for k := 0; k <= len(want)+1; k++ {
		exp := want
		if k > 0 && k < len(want) {
			exp = want[:k]
		}
		if got := p.TopMemberLinks(k); !reflect.DeepEqual(got, exp) {
			t.Fatalf("k=%d: got %v, want %v", k, got, exp)
		}
	}
}
