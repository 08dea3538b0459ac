package main

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ixplens/internal/analysis"
	"ixplens/internal/vfs"
)

func iv(start, end time.Duration) interval { return interval{start, end} }

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := iv(0, 100)
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{iv(0, 10), iv(50, 60)}, 80},
		{"overlapping parallel spans count once", []interval{iv(10, 30), iv(20, 40)}, 70},
		{"identical parallel spans count once", []interval{iv(10, 20), iv(10, 20), iv(10, 20)}, 90},
		{"nested", []interval{iv(10, 50), iv(20, 30)}, 60},
		{"touching", []interval{iv(10, 20), iv(20, 30)}, 80},
		{"clipped to the parent", []interval{iv(-20, 10), iv(90, 150)}, 80},
		{"outside the parent", []interval{iv(200, 300)}, 100},
		{"covering the parent", []interval{iv(-5, 105), iv(40, 60)}, 0},
		{"unsorted", []interval{iv(70, 80), iv(5, 15), iv(12, 20)}, 75},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTracerSelfUsesOnlyOwnChildren(t *testing.T) {
	tr := &tracer{}
	// Two runs, each with children; a grandchild does not reduce the
	// run's self time twice.
	tr.spans = []span{
		{name: "run", parent: -1, iv: iv(0, 100), done: true},
		{name: "stage", parent: 0, iv: iv(10, 40), done: true},
		{name: "stage", parent: 0, iv: iv(30, 60), done: true}, // overlaps its sibling
		{name: "io", parent: 1, iv: iv(15, 20), done: true},
		{name: "run", parent: -1, iv: iv(200, 250), done: true},
		{name: "stage", parent: 4, iv: iv(210, 220), done: true},
		{name: "stage", parent: 4, iv: iv(230, 240), done: false}, // never closed
	}
	if got, want := tr.self("run"), time.Duration(50+40); got != want {
		t.Fatalf("self(run) = %v, want %v", got, want)
	}
	if got, want := tr.self("stage"), time.Duration(25+30+10); got != want {
		t.Fatalf("self(stage) = %v, want %v", got, want)
	}
	if got, want := tr.total("stage"), time.Duration(30+30+10); got != want {
		t.Fatalf("total(stage) = %v, want %v", got, want)
	}
}

func TestTracerSpansNest(t *testing.T) {
	tr := newTracer()
	root := tr.begin("run", -1)
	child := tr.begin("stage", root)
	time.Sleep(time.Millisecond)
	tr.end(child)
	tr.end(root)
	if self, total := tr.self("run"), tr.total("run"); self < 0 || self >= total {
		t.Fatalf("self %v not below total %v", self, total)
	}
	if tr.total("stage") < time.Millisecond {
		t.Fatalf("stage span %v shorter than the sleep inside it", tr.total("stage"))
	}
}

func TestTimedFSCountsBytesAndSyncs(t *testing.T) {
	st := &ioStats{}
	fsys := timedFS{vfs.OS{}, st}
	path := filepath.Join(t.TempDir(), "f")
	if err := vfs.WriteFileAtomic(fsys, path, []byte("hello, ixp"), ".f-*"); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fsys, path)
	if err != nil || string(got) != "hello, ixp" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if st.written.Load() != 10 || st.read.Load() != 10 {
		t.Fatalf("counted %d bytes written, %d read; want 10, 10", st.written.Load(), st.read.Load())
	}
	// The atomic writer fsyncs the temp file and the parent directory.
	if st.syncs.Load() != 2 {
		t.Fatalf("counted %d syncs, want 2", st.syncs.Load())
	}
}

func TestTimedRegistryDelegates(t *testing.T) {
	reg, stats, err := timedRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Names(), analysis.Default().Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("names %v, want %v", got, want)
	}
	for _, name := range reg.Names() {
		a, _ := reg.Lookup(name)
		b, _ := analysis.Default().Lookup(name)
		if a.Version() != b.Version() || stats[name] == nil {
			t.Fatalf("%s: version %d vs %d, stats %v", name, a.Version(), b.Version(), stats[name])
		}
	}
}
