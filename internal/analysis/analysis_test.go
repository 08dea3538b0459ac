package analysis

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"ixplens/internal/certsim"
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/hetero"
	"ixplens/internal/core/visibility"
	"ixplens/internal/core/webserver"
	"ixplens/internal/entity"
	"ixplens/internal/packet"
)

// syntheticRecords builds a deterministic mixed stream: peering TCP/UDP
// flows over a handful of endpoints and member ports, interleaved with
// cascade rejects the analyzers must ignore.
func syntheticRecords() []dissect.Record {
	var recs []dissect.Record
	state := uint64(42)
	next := func(n uint64) uint64 { // xorshift, deterministic
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state % n
	}
	ips := []packet.IPv4Addr{
		packet.MakeIPv4(10, 0, 0, 1), packet.MakeIPv4(10, 0, 0, 2),
		packet.MakeIPv4(10, 0, 0, 3), packet.MakeIPv4(172, 16, 0, 9),
		packet.MakeIPv4(192, 168, 7, 7),
	}
	for i := 0; i < 400; i++ {
		rec := dissect.Record{
			Class:     dissect.ClassPeeringTCP,
			SrcIP:     ips[next(uint64(len(ips)))],
			DstIP:     ips[next(uint64(len(ips)))],
			InMember:  int32(next(4)),
			OutMember: int32(next(4)) - 1, // includes -1 (non-member port)
			Bytes:     512 * (next(64) + 1),
		}
		switch i % 7 {
		case 3:
			rec.Class = dissect.ClassPeeringUDP
		case 5:
			rec.Class = dissect.ClassLocal // must be ignored
		case 6:
			rec.Class = dissect.ClassNonIPv4 // must be ignored
		}
		recs = append(recs, rec)
	}
	// Edge cases the sort-reduce must fold exactly like a keyed sum,
	// each on endpoints the random part never uses.
	recs = append(recs, dissect.Record{ // credited once, not twice
		Class: dissect.ClassPeeringTCP, SrcIP: selfIP, DstIP: selfIP,
		InMember: 1, OutMember: 2, Bytes: 777,
	})
	recs = append(recs, dissect.Record{ // observed with zero bytes
		Class: dissect.ClassPeeringUDP, SrcIP: zeroSrc, DstIP: zeroDst,
		InMember: 2, OutMember: 3,
	})
	for i := 0; i < repeatCount; i++ { // one flow key over several workers
		recs = append(recs, dissect.Record{
			Class: dissect.ClassPeeringTCP, SrcIP: repeatSrc, DstIP: repeatDst,
			InMember: 3, OutMember: 0, Bytes: repeatBytes,
		})
	}
	for _, cls := range []dissect.Class{dissect.ClassLocal, dissect.ClassNonTCPUDP, dissect.ClassNonIPv4} {
		recs = append(recs, dissect.Record{ // must be ignored
			Class: cls, SrcIP: ignoredIP, DstIP: ignoredIP, InMember: 1, OutMember: 1, Bytes: 4096,
		})
	}
	return recs
}

var (
	selfIP    = packet.MakeIPv4(198, 51, 100, 1)
	zeroSrc   = packet.MakeIPv4(203, 0, 113, 5)
	zeroDst   = packet.MakeIPv4(203, 0, 113, 6)
	repeatSrc = packet.MakeIPv4(198, 51, 100, 8)
	repeatDst = packet.MakeIPv4(198, 51, 100, 9)
	ignoredIP = packet.MakeIPv4(100, 64, 0, 1)
)

const (
	repeatCount = 9
	repeatBytes = 1500
)

func testContext() *Context {
	return &Context{}
}

func TestSelect(t *testing.T) {
	for _, list := range []string{"", "all", " all "} {
		reg, err := Select(list)
		if err != nil {
			t.Fatalf("Select(%q): %v", list, err)
		}
		want := []string{NameLinks, NameVisibility, NameWebserver}
		if !reflect.DeepEqual(reg.Names(), want) {
			t.Fatalf("Select(%q) = %v, want %v", list, reg.Names(), want)
		}
	}
	// Narrowing always keeps the webserver analyzer: churn tracking and
	// the snapshot layer require its product.
	reg, err := Select("links")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{NameLinks, NameWebserver}; !reflect.DeepEqual(reg.Names(), want) {
		t.Fatalf("Select(links) = %v, want %v", reg.Names(), want)
	}
	reg, err = Select(" visibility , links ")
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 3 {
		t.Fatalf("Select(visibility,links) kept %d analyzers, want 3", reg.Len())
	}
	if _, err := Select("webserver,nosuch"); !errors.Is(err, ErrUnknownAnalyzer) {
		t.Fatalf("unknown analyzer error = %v, want ErrUnknownAnalyzer", err)
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	if _, err := NewRegistry(Links(), Webserver(), Links()); err == nil {
		t.Fatal("duplicate analyzer accepted")
	}
}

// TestFusedMatchesSerial pins partition independence: the same records
// scattered over 4 worker shards must finish into byte-identical
// products as a single-worker serial run.
func TestFusedMatchesSerial(t *testing.T) {
	reg, err := NewRegistry(Visibility(), Links())
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords()

	serial := reg.NewRun(testContext(), 1)
	for i := range recs {
		serial.Observe(0, &recs[i], uint64(i))
	}
	want, err := serial.Finish(45)
	if err != nil {
		t.Fatal(err)
	}

	sharded := reg.NewRun(testContext(), 4)
	for i := range recs {
		sharded.Observe((i*7+3)%4, &recs[i], uint64(i))
	}
	got, err := sharded.Finish(45)
	if err != nil {
		t.Fatal(err)
	}

	for _, np := range want.All() {
		a, err := np.P.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Get(np.Name).AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: sharded product differs from serial", np.Name)
		}
	}
}

// TestPartitionsMatchSerial extends the partition-independence check
// to skewed pools: a worker that never observes anything, and every
// record on one worker of several.
func TestPartitionsMatchSerial(t *testing.T) {
	reg, err := NewRegistry(Visibility(), Links())
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords()
	want := encodeAll(t, runRecords(t, reg, recs, 1, func(int) int { return 0 }))
	for _, tc := range []struct {
		name    string
		workers int
		of      func(i int) int
	}{
		{"idle-worker", 5, func(i int) int { return (i*7 + 3) % 4 }},
		{"one-busy-worker", 3, func(int) int { return 2 }},
		{"round-robin", 6, func(i int) int { return i % 6 }},
	} {
		got := encodeAll(t, runRecords(t, reg, recs, tc.workers, tc.of))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sharded products differ from serial", tc.name)
		}
	}
}

// TestConcurrentObserve drives each worker's shard from its own
// goroutine, as the sharded pipeline does; run under -race it checks
// that neighbouring shard logs share no state.
func TestConcurrentObserve(t *testing.T) {
	reg, err := NewRegistry(Visibility(), Links())
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords()
	want := encodeAll(t, runRecords(t, reg, recs, 1, func(int) int { return 0 }))
	const workers = 4
	run := reg.NewRun(testContext(), workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += workers {
				run.Observe(w, &recs[i], uint64(i))
			}
		}(w)
	}
	wg.Wait()
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeAll(t, prods); !reflect.DeepEqual(got, want) {
		t.Fatal("concurrently observed products differ from serial")
	}
}

// TestSortReduceEdgeCases pins what the fold makes of the edge-case
// records syntheticRecords appends.
func TestSortReduceEdgeCases(t *testing.T) {
	reg, err := NewRegistry(Visibility(), Links())
	if err != nil {
		t.Fatal(err)
	}
	prods := runRecords(t, reg, syntheticRecords(), 4, func(i int) int { return (i*7 + 3) % 4 })

	perIP := map[packet.IPv4Addr]uint64{}
	for i, e := range prods.Visibility().PerIP {
		if i > 0 && prods.Visibility().PerIP[i-1].IP >= e.IP {
			t.Fatalf("visibility entries not strictly IP-sorted at %d", i)
		}
		perIP[e.IP] = e.Bytes
	}
	if got := perIP[selfIP]; got != 777 {
		t.Errorf("self-addressed IP credited %d bytes, want 777", got)
	}
	for _, ip := range []packet.IPv4Addr{zeroSrc, zeroDst} {
		if b, ok := perIP[ip]; !ok || b != 0 {
			t.Errorf("zero-byte endpoint %v: present=%v bytes=%d", ip, ok, b)
		}
	}
	if got := perIP[repeatSrc]; got != repeatCount*repeatBytes {
		t.Errorf("repeated IP credited %d bytes, want %d", got, repeatCount*repeatBytes)
	}
	if _, ok := perIP[ignoredIP]; ok {
		t.Error("non-peering endpoint reached the visibility product")
	}

	flows := prods.Links().Flows
	repeat := FlowKey{Src: repeatSrc, Dst: repeatDst, In: 3, Out: 0}
	found := false
	for i := range flows {
		f := &flows[i]
		if i > 0 && compareFlows(flows[i-1], *f) >= 0 {
			t.Fatalf("flows not strictly key-sorted at %d", i)
		}
		if f.Src == ignoredIP {
			t.Error("non-peering record reached the links product")
		}
		if f.FlowKey == repeat {
			found = true
			if f.Samples != repeatCount || f.Bytes != repeatCount*repeatBytes {
				t.Errorf("repeated flow folded to %d samples/%d bytes", f.Samples, f.Bytes)
			}
		}
	}
	if !found {
		t.Error("repeated flow key missing")
	}
}

// TestNoPeeringWeek: a week without peering records still encodes both
// products, as an empty list (n = 0).
func TestNoPeeringWeek(t *testing.T) {
	reg, err := NewRegistry(Visibility(), Links())
	if err != nil {
		t.Fatal(err)
	}
	var recs []dissect.Record
	for _, r := range syntheticRecords() {
		if !r.Class.IsPeering() {
			recs = append(recs, r)
		}
	}
	for name, buf := range encodeAll(t, runRecords(t, reg, recs, 3, func(i int) int { return i % 3 })) {
		if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
			t.Errorf("%s: empty week encodes as %x, want n = 0", name, buf)
		}
	}
}

// TestObserveAllocFree pins the hot path of the sort-reduce analyzers:
// Observe on a stream of distinct keys is an amortized append — no
// per-record allocation, no map and no entity table (the Context has
// none to offer).
func TestObserveAllocFree(t *testing.T) {
	reg, err := NewRegistry(Visibility(), Links())
	if err != nil {
		t.Fatal(err)
	}
	run := reg.NewRun(&Context{}, 2)
	rec := dissect.Record{Class: dissect.ClassPeeringTCP, InMember: 1, OutMember: 2, Bytes: 1500}
	allocs := testing.AllocsPerRun(50000, func() {
		rec.SrcIP++
		rec.DstIP += 7
		run.Observe(1, &rec, 0)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.2f times per record, want 0", allocs)
	}
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prods.Links().Flows); n != 50001 {
		t.Fatalf("links kept %d flows, want 50001", n)
	}
}

func runRecords(t *testing.T, reg *Registry, recs []dissect.Record, workers int, of func(i int) int) *Products {
	t.Helper()
	run := reg.NewRun(testContext(), workers)
	for i := range recs {
		run.Observe(of(i), &recs[i], uint64(i))
	}
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	return prods
}

func encodeAll(t *testing.T, prods *Products) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, np := range prods.All() {
		buf, err := np.P.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		out[np.Name] = buf
	}
	return out
}

// TestProductRoundTrips pins every analyzer codec: encode → Decode →
// re-encode must reproduce the bytes, and a wrong section version must
// fail with ErrVersion.
func TestProductRoundTrips(t *testing.T) {
	reg, err := NewRegistry(Visibility(), Links())
	if err != nil {
		t.Fatal(err)
	}
	run := reg.NewRun(testContext(), 2)
	recs := syntheticRecords()
	for i := range recs {
		run.Observe(i%2, &recs[i], uint64(i))
	}
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	if prods.Visibility().ObservedIPs() == 0 || len(prods.Links().Flows) == 0 {
		t.Fatal("synthetic stream produced empty products")
	}
	for _, np := range prods.All() {
		a, ok := reg.Lookup(np.Name)
		if !ok {
			t.Fatalf("product %q has no analyzer", np.Name)
		}
		buf, err := np.P.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := a.Decode(np.Version, buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", np.Name, err)
		}
		buf2, err := back.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("%s: decode/re-encode drifted", np.Name)
		}
		if _, err := a.Decode(np.Version+9, buf); !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: future version error = %v, want ErrVersion", np.Name, err)
		}
		if len(buf) > 0 {
			if _, err := a.Decode(np.Version, buf[:len(buf)-1]); !errors.Is(err, ErrFormat) {
				t.Fatalf("%s: truncated payload error = %v, want ErrFormat", np.Name, err)
			}
		}
	}
}

func TestWebserverProductRoundTrip(t *testing.T) {
	res := &webserver.Result{
		Week:          45,
		Servers:       map[packet.IPv4Addr]*webserver.Server{},
		Candidates443: 7, Responded443: 6, Valid443: 5,
		TotalIPs: 1234, ServerBytes: 1 << 40, EstLoss: 0.0321,
	}
	res.Servers[packet.MakeIPv4(10, 0, 0, 1)] = &webserver.Server{
		IP: packet.MakeIPv4(10, 0, 0, 1), HTTP: true, Bytes: 99,
		Ports: []uint16{80, 443}, Hosts: []string{"a.example"},
		AlsoClient: true, Member: 17,
	}
	res.Servers[packet.MakeIPv4(10, 0, 0, 2)] = &webserver.Server{
		IP: packet.MakeIPv4(10, 0, 0, 2), HTTPS: true, Member: -1,
		Cert: certsim.Info{Subject: "shop.example", AltNames: []string{"cdn.example"}},
	}
	p := &WebserverProduct{Res: res}
	buf, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Webserver().Decode(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.(*WebserverProduct).Res, res) {
		t.Fatal("webserver product round trip diverged")
	}
	buf2, err := back.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("webserver re-encode drifted")
	}
}

// TestLinkStatsReplayEquivalence pins the property the fused pass leans
// on: replaying the aggregated flow product through ObserveFlow yields
// the same attribution as the legacy per-record second pass, for any
// server predicate.
func TestLinkStatsReplayEquivalence(t *testing.T) {
	recs := syntheticRecords()
	servers := map[packet.IPv4Addr]bool{
		packet.MakeIPv4(10, 0, 0, 1):   true,
		packet.MakeIPv4(172, 16, 0, 9): true,
	}
	isServer := func(ip packet.IPv4Addr) bool { return servers[ip] }
	const home = 2

	direct := hetero.NewLinkStats(home)
	for i := range recs {
		direct.Observe(&recs[i], isServer)
	}

	reg, err := NewRegistry(Links())
	if err != nil {
		t.Fatal(err)
	}
	run := reg.NewRun(testContext(), 3)
	for i := range recs {
		run.Observe(i%3, &recs[i], uint64(i))
	}
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	replayed := prods.Links().LinkStats(home, nil, isServer)

	if direct.TotalBytes != replayed.TotalBytes || direct.DirectBytes != replayed.DirectBytes {
		t.Fatalf("totals diverged: direct %d/%d, replayed %d/%d",
			direct.DirectBytes, direct.TotalBytes, replayed.DirectBytes, replayed.TotalBytes)
	}
	if !reflect.DeepEqual(direct.PerMember, replayed.PerMember) {
		t.Fatal("per-member attribution diverged")
	}
	if direct.NumDirectServers() != replayed.NumDirectServers() ||
		direct.ServersOnlyOffLink() != replayed.ServersOnlyOffLink() {
		t.Fatal("server partition diverged")
	}
	if !reflect.DeepEqual(direct.Points(), replayed.Points()) {
		t.Fatal("Fig. 7 points diverged")
	}
}

// TestVisibilityAggregatorRebuild pins that an aggregator rebuilt from
// the persisted product sees exactly what a live pass saw.
func TestVisibilityAggregatorRebuild(t *testing.T) {
	recs := syntheticRecords()
	table := entity.NewTable(nil, nil)
	live := visibility.NewAggregatorWith(table)
	for i := range recs {
		live.Observe(&recs[i])
	}

	reg, err := NewRegistry(Visibility())
	if err != nil {
		t.Fatal(err)
	}
	run := reg.NewRun(testContext(), 2)
	for i := range recs {
		run.Observe(i%2, &recs[i], uint64(i))
	}
	prods, err := run.Finish(45)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := prods.Visibility().Aggregator(entity.NewTable(nil, nil))

	if !reflect.DeepEqual(live.PerIP(), rebuilt.PerIP()) {
		t.Fatal("rebuilt aggregator diverged from live pass")
	}
	if live.NumObservedIPs() != rebuilt.NumObservedIPs() {
		t.Fatal("observed IP counts diverged")
	}
	if got, want := prods.Visibility().TotalBytes(), sumBytes(live.PerIP()); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
}

func sumBytes(per []visibility.IPTraffic) uint64 {
	var sum uint64
	for i := range per {
		sum += per[i].Bytes
	}
	return sum
}
