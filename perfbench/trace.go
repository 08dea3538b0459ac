package main

import (
	"io/fs"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ixplens/internal/analysis"
	"ixplens/internal/core/dissect"
	"ixplens/internal/vfs"
)

// The instruments below time the program from outside: they wrap the
// seams the program already exposes (vfs.FS, analysis.Analyzer,
// supervise.Hooks) and are installed only in traced runs.

// interval is a closed span of time, as offsets from a tracer's epoch.
type interval struct{ start, end time.Duration }

func (iv interval) dur() time.Duration { return iv.end - iv.start }

// covered returns how much of parent the union of children covers.
// Children may overlap each other (parallel work) and may stick out of
// parent; each instant counts once.
func covered(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			cur, open = c, true
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			total += cur.dur()
			cur = c
		}
	}
	if open {
		total += cur.dur()
	}
	return total
}

// selfTime is parent's duration minus the part its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.dur() - covered(parent, children)
}

// span is one recorded layer call. parent is the index of the span that
// caused it, or -1.
type span struct {
	name   string
	parent int
	iv     interval
	done   bool
}

// tracer keeps spans in memory; it is safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, iv: interval{now, now}})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].iv.end = now
	t.spans[id].done = true
}

// total sums the durations of the closed spans named name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if s.done && s.name == name {
			sum += s.iv.dur()
		}
	}
	return sum
}

// self sums the self time of the closed spans named name: each span's
// duration minus what its closed child spans cover.
func (t *tracer) self(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.done && s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.iv)
		}
	}
	var sum time.Duration
	for i, s := range t.spans {
		if s.done && s.name == name {
			sum += selfTime(s.iv, children[i])
		}
	}
	return sum
}

// ioStats accumulates what the timing filesystem saw.
type ioStats struct {
	writeNs, syncNs, readNs atomic.Int64
	written, read, syncs    atomic.Int64
}

// reset zeroes the totals.
func (st *ioStats) reset() {
	for _, c := range []*atomic.Int64{&st.writeNs, &st.syncNs, &st.readNs, &st.written, &st.read, &st.syncs} {
		c.Store(0)
	}
}

// timedFS wraps a vfs.FS, timing every read, write and fsync.
type timedFS struct {
	vfs.FS
	st *ioStats
}

func (f timedFS) wrap(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.st}, nil
}

func (f timedFS) Open(name string) (vfs.File, error) { return f.wrap(f.FS.Open(name)) }

func (f timedFS) Create(name string) (vfs.File, error) { return f.wrap(f.FS.Create(name)) }

func (f timedFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}

func (f timedFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

func (f timedFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.FS.SyncDir(dir)
	f.st.syncNs.Add(int64(time.Since(start)))
	f.st.syncs.Add(1)
	return err
}

type timedFile struct {
	vfs.File
	st *ioStats
}

func (f timedFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Read(p)
	f.st.readNs.Add(int64(time.Since(start)))
	f.st.read.Add(int64(n))
	return n, err
}

func (f timedFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.st.readNs.Add(int64(time.Since(start)))
	f.st.read.Add(int64(n))
	return n, err
}

func (f timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.st.writeNs.Add(int64(time.Since(start)))
	f.st.written.Add(int64(n))
	return n, err
}

func (f timedFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.st.writeNs.Add(int64(time.Since(start)))
	f.st.written.Add(int64(n))
	return n, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.st.syncNs.Add(int64(time.Since(start)))
	f.st.syncs.Add(1)
	return err
}

// analyzerStats accumulates one analyzer's timings over a campaign.
// observeNs is worker-busy time: workers observe in parallel, so it can
// exceed the wall time it overlaps.
type analyzerStats struct {
	observeNs, finishNs, productBytes atomic.Int64
}

// timedAnalyzer decorates an analyzer; Name, Version and Decode pass
// through unchanged.
type timedAnalyzer struct {
	analysis.Analyzer
	st *analyzerStats
}

func (a timedAnalyzer) NewState(actx *analysis.Context, workers int) analysis.State {
	return &timedState{State: a.Analyzer.NewState(actx, workers), st: a.st, busy: make([]paddedNs, workers)}
}

// paddedNs keeps per-worker counters on separate cache lines.
type paddedNs struct {
	ns atomic.Int64
	_  [56]byte
}

type timedState struct {
	analysis.State
	st   *analyzerStats
	busy []paddedNs
}

func (s *timedState) Observe(worker int, rec *dissect.Record, seq uint64) {
	start := time.Now()
	s.State.Observe(worker, rec, seq)
	s.busy[worker].ns.Add(int64(time.Since(start)))
}

func (s *timedState) Finish(isoWeek int) (analysis.Product, error) {
	start := time.Now()
	p, err := s.State.Finish(isoWeek)
	s.st.finishNs.Add(int64(time.Since(start)))
	for i := range s.busy {
		s.st.observeNs.Add(s.busy[i].ns.Load())
	}
	if err == nil {
		if b, eerr := p.AppendEncode(nil); eerr == nil {
			s.st.productBytes.Add(int64(len(b)))
		}
	}
	return p, err
}

// timedRegistry wraps every builtin analyzer, returning the registry
// and each analyzer's stats by name.
func timedRegistry() (*analysis.Registry, map[string]*analyzerStats, error) {
	builtins := []analysis.Analyzer{analysis.Webserver(), analysis.Visibility(), analysis.Links()}
	stats := make(map[string]*analyzerStats, len(builtins))
	wrapped := make([]analysis.Analyzer, len(builtins))
	for i, a := range builtins {
		st := &analyzerStats{}
		stats[a.Name()] = st
		wrapped[i] = timedAnalyzer{a, st}
	}
	reg, err := analysis.NewRegistry(wrapped...)
	return reg, stats, err
}

// runtimeStats is a reading of the Go runtime's GC and allocation
// counters.
type runtimeStats struct {
	gcCycles   uint64
	allocBytes uint64
	gcPauseS   float64
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out runtimeStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.gcPauseS = histogramSum(s[2].Value.Float64Histogram())
	}
	return out
}

// histogramSum estimates a runtime histogram's total by weighting each
// bucket's count with its midpoint (its finite edge for open buckets).
func histogramSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case lo < -1e300:
			mid = hi
		case hi > 1e300:
			mid = lo
		}
		sum += float64(n) * mid
	}
	return sum
}

// since returns the runtime activity between two readings.
func (r runtimeStats) since(before runtimeStats) runtimeStats {
	return runtimeStats{
		gcCycles:   r.gcCycles - before.gcCycles,
		allocBytes: r.allocBytes - before.allocBytes,
		gcPauseS:   r.gcPauseS - before.gcPauseS,
	}
}
