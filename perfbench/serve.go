package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ixplens/internal/obs"
	"ixplens/internal/pipeline"
	"ixplens/internal/serve"
	"ixplens/internal/snapshot"
	"ixplens/internal/vfs"
)

// Endpoint kinds, in the order of endpoints and mix.
const (
	weekKind = iota
	serversKind
	asesKind
	visibilityKind
	linksKind
	churnKind
)

var endpoints = [...]string{"week", "servers", "ases", "visibility", "links", "churn"}

// mix is the request mix per 100 requests. Every block of 100 requests
// holds exactly these counts in a seeded order, so a run's mix does not
// depend on how many requests it completes.
var mix = [...]int{30, 20, 15, 15, 18, 2}

const (
	// clients is the number of closed-loop clients: each waits for a
	// reply before it sends its next request, as ixpserve's scripted
	// callers do. Two keep the load generator within a small core budget.
	clients = 2
	// cacheWeeks is the server's cache size against a 17-week working
	// set, so that most requests load and decode a snapshot.
	cacheWeeks = 4
	// sequenceLen bounds the pre-generated request sequence; a run that
	// completes more requests wraps around.
	sequenceLen = 100 * 1000
	// clientTimeout bounds one request; a timed-out request fails and
	// counts at this latency.
	clientTimeout = 30 * time.Second
	// rounds is how many parts a run splits into; each gives one sample
	// of setup_s, wall_s, resume_s and peak RSS.
	rounds = 5
	// resumeBlock is how many requests of the sequence, one block of the
	// mix, a restarted server answers for a resume_s sample.
	resumeBlock = 100
)

// request is one query: an endpoint kind and, except for /churn, a week.
type request struct {
	kind int
	week int
}

func (q request) path() string {
	switch q.kind {
	case weekKind:
		return "/week/" + strconv.Itoa(q.week)
	case churnKind:
		return "/churn"
	default:
		return "/week/" + strconv.Itoa(q.week) + "/" + endpoints[q.kind]
	}
}

// requestSequence returns n requests drawn from seed: blocks of 100
// with the exact mix, shuffled, each week uniform over weeks.
func requestSequence(seed int64, weeks []int, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	var block []int
	for kind, count := range mix {
		for i := 0; i < count; i++ {
			block = append(block, kind)
		}
	}
	out := make([]request, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			q := request{kind: kind}
			if kind != churnKind {
				q.week = weeks[rng.Intn(len(weeks))]
			}
			out = append(out, q)
		}
	}
	return out[:n]
}

// server is one in-process ixpserve instance on a loopback port.
type server struct {
	store *serve.Store
	srv   *serve.Server
	hs    *http.Server
	reg   *obs.Registry
	base  string
	done  chan error
}

// startServer opens the campaign store and serves it the way
// cmd/ixpserve does, on a free loopback port. A non-nil fsys replaces
// the store's filesystem before the server starts.
func startServer(dir string, fsys vfs.FS) (*server, error) {
	store, err := serve.OpenStore(dir, false)
	if err != nil {
		return nil, err
	}
	if fsys != nil {
		store.Env().FS = fsys
	}
	reg := obs.NewRegistry()
	store.Env().Instrument(reg)
	srv := serve.New(store, serve.Config{CacheWeeks: cacheWeeks}, reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{store: store, srv: srv, hs: &http.Server{Handler: srv}, reg: reg,
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serve goroutine and
// drains the server.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

func (s *server) counter(name string) uint64 { return s.reg.Counter(name).Value() }

// serveRun carries one serve workload run's shared state.
type serveRun struct {
	opt      *options
	r        *result
	dir      string
	weeks    []int
	expected map[string][]byte
	client   *http.Client
	// analyses sums serve_analyses_total over every server started.
	analyses uint64
	// next is the position in the request sequence.
	next atomic.Int64
}

func newServeRun(ctx context.Context, opt *options) (*serveRun, error) {
	dir, expected, err := fixture(ctx, opt.root, opt.worldSeed)
	if err != nil {
		return nil, err
	}
	sr := &serveRun{opt: opt, r: newResult(), dir: dir, expected: expected}
	sr.client = &http.Client{
		Timeout:   clientTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}
	return sr, nil
}

// fetch sends one GET and checks the body against the expected render.
func (sr *serveRun) fetch(base, path string) (status int, lat time.Duration, err error) {
	start := time.Now()
	resp, err := sr.client.Get(base + path)
	if err != nil {
		return 0, time.Since(start), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(start)
	if err != nil {
		return resp.StatusCode, lat, err
	}
	if resp.StatusCode == http.StatusOK {
		sr.r.check(bytes.Equal(body, sr.expected[path]), "%s: body differs from the direct render", path)
	}
	return resp.StatusCode, lat, nil
}

// start brings a server up and returns it with the time that took.
// fsys is as for startServer.
func (sr *serveRun) start(fsys vfs.FS) (*server, time.Duration, error) {
	begin := time.Now()
	s, err := startServer(sr.dir, fsys)
	if err != nil {
		return nil, 0, err
	}
	if sr.weeks == nil {
		sr.weeks = s.store.Weeks()
	}
	return s, time.Since(begin), nil
}

// stop stops s and folds its analysis count into the gate. It returns
// the server's memory to the OS, so the next server's peak RSS is its
// own.
func (sr *serveRun) stop(s *server) error {
	sr.analyses += s.counter("serve_analyses_total")
	err := s.stop()
	debug.FreeOSMemory()
	return err
}

// sample is one request of the load phase.
type sample struct {
	kind int
	ms   float64
}

// drive runs the closed-loop clients against s, each sending the next
// request take hands out until it reports none left, and returns each
// request's latency and the wall time the clients took.
func (sr *serveRun) drive(s *server, take func() (request, bool)) ([]sample, time.Duration) {
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var t tally
			for {
				q, ok := take()
				if !ok {
					break
				}
				status, lat, err := sr.fetch(s.base, q.path())
				t.request(status, err)
				ms := millis(lat)
				if err != nil || status != http.StatusOK {
					ms = millis(clientTimeout)
				}
				mine = append(mine, sample{q.kind, ms})
			}
			mu.Lock()
			all = append(all, mine...)
			sr.r.tally.attempted += t.attempted
			sr.r.tally.failed += t.failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, time.Since(begin)
}

// load drives the clients for d, continuing the request sequence where
// the previous load stopped.
func (sr *serveRun) load(s *server, seq []request, d time.Duration) ([]sample, time.Duration) {
	deadline := time.Now().Add(d)
	return sr.drive(s, func() (request, bool) {
		if !time.Now().Before(deadline) {
			return request{}, false
		}
		return seq[int(sr.next.Add(1)-1)%len(seq)], true
	})
}

// batch drives the clients through qs once and returns the wall time.
func (sr *serveRun) batch(s *server, qs []request) time.Duration {
	var next atomic.Int64
	_, wall := sr.drive(s, func() (request, bool) {
		k := int(next.Add(1) - 1)
		if k >= len(qs) {
			return request{}, false
		}
		return qs[k], true
	})
	return wall
}

// sweep fetches every distinct request once, in order, from one client.
func (sr *serveRun) sweep(s *server) {
	for _, q := range catalog(sr.weeks) {
		status, _, err := sr.fetch(s.base, q.path())
		sr.r.tally.request(status, err)
		sr.r.check(err == nil && status == http.StatusOK, "sweep %s: status %d, %v", q.path(), status, err)
	}
}

// latencies returns the sorted latencies of the samples of kind, or of
// all samples for kind < 0.
func latencies(samples []sample, kind int) []float64 {
	var out []float64
	for _, s := range samples {
		if kind < 0 || s.kind == kind {
			out = append(out, s.ms)
		}
	}
	sort.Float64s(out)
	return out
}

// okPerSecond is the rate of successful requests.
func okPerSecond(samples []sample, wall time.Duration) float64 {
	ok := 0
	for _, s := range samples {
		if s.ms < millis(clientTimeout) {
			ok++
		}
	}
	return float64(ok) / wall.Seconds()
}

// runServe is the untraced serve workload, in rounds so that every
// metric's samples spread over the whole run. Each server start is a
// setup_s sample. A round
//   - starts a server and runs the clients for its share of -seconds
//     (the CPU, rps and latency samples),
//   - has the clients fetch every distinct request once from the warm
//     server (a wall_s sample),
//   - restarts the server and has the clients send the first block of
//     the sequence to its cold cache (a resume_s sample),
//   - restarts it again and sweeps every distinct request from one
//     client (a peak RSS sample).
func runServe(ctx context.Context, opt *options) (*result, error) {
	sr, err := newServeRun(ctx, opt)
	if err != nil {
		return nil, err
	}
	r := sr.r
	var setups, walls, resumes, peaks []float64
	var samples []sample
	var loadWall, loadCPU time.Duration
	var seq []request
	for round := 0; round < rounds; round++ {
		s, d, err := sr.start(nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(d))
		if seq == nil {
			seq = requestSequence(opt.seed, sr.weeks, sequenceLen)
		}
		cpu := cpuTime()
		got, wall := sr.load(s, seq, opt.seconds/rounds)
		loadCPU += cpuTime() - cpu
		samples = append(samples, got...)
		loadWall += wall
		walls = append(walls, seconds(sr.batch(s, catalog(sr.weeks))))
		if err := sr.stop(s); err != nil {
			return nil, err
		}

		begin := time.Now()
		if s, d, err = sr.start(nil); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(d))
		sr.batch(s, seq[:resumeBlock])
		resumes = append(resumes, seconds(time.Since(begin)))
		if err := sr.stop(s); err != nil {
			return nil, err
		}

		// Peak RSS is taken while one client answers a fixed sequence.
		// Under two clients the peak depends on how often two /churn
		// requests overlap, which varies too much from run to run to
		// bound.
		resetPeakRSS()
		if s, d, err = sr.start(nil); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(d))
		sr.sweep(s)
		peaks = append(peaks, peakRSSMB())
		if err := sr.stop(s); err != nil {
			return nil, err
		}
	}
	sr.client.CloseIdleConnections()
	r.check(sr.analyses == 0, "%d re-analyses: the fixture's snapshots were not used", sr.analyses)

	sorted := latencies(samples, -1)
	if len(sorted) == 0 {
		return nil, errors.New("no request completed")
	}
	pm, tailMs := tail(sorted)
	r.set("setup_s", median(setups))
	r.set("cpu_ms_per_op", millis(loadCPU)/float64(len(sorted)))
	r.set("peak_rss_mb", trimmedMean(peaks))
	r.notes["setup_s"] = fmt.Sprintf("median of %d starts", len(setups))
	r.notes["cpu_ms_per_op"] = fmt.Sprintf("per request, server and clients, over %d requests", len(sorted))
	r.notes["peak_rss_mb"] = fmt.Sprintf("trimmed mean of %d single-client sweeps after a restart", rounds)
	r.inform("wall_s", "s", trimmedMean(walls), fmt.Sprintf("trimmed mean of %d: the clients fetch all %d distinct requests", rounds, len(sr.expected)))
	r.inform("resume_s", "s", trimmedMean(resumes), fmt.Sprintf("trimmed mean of %d: restart, then the first %d requests", rounds, resumeBlock))
	r.inform("rps", "1/s", okPerSecond(samples, loadWall), "successful requests per second of load")
	r.inform("p50_ms", "ms", percentile(sorted, 500), fmt.Sprintf("%d requests", len(sorted)))
	r.inform("p99_ms", "ms", tailMs, fmt.Sprintf("p%g of %d requests", float64(pm)/10, len(sorted)))
	return r, nil
}

// traceServe is the traced serve workload: an untraced load phase as
// the overhead baseline, then a fresh server whose store reads through
// the timing vfs.FS for a traced load phase, then direct calls into the
// render functions and the snapshot codec.
func traceServe(ctx context.Context, opt *options) (*result, error) {
	sr, err := newServeRun(ctx, opt)
	if err != nil {
		return nil, err
	}
	r := sr.r
	r.zeroLayers()
	s, _, err := sr.start(nil)
	if err != nil {
		return nil, err
	}
	seq := requestSequence(opt.seed, sr.weeks, sequenceLen)
	baseSamples, baseWall := sr.load(s, seq, opt.seconds)
	if err := sr.stop(s); err != nil {
		return nil, err
	}

	reads := &ioStats{}
	if s, _, err = sr.start(timedFS{vfs.OS{}, reads}); err != nil {
		return nil, err
	}
	reads.reset() // count the load phase only
	names := []string{"serve_cache_hits_total", "serve_cache_misses_total", "serve_snapshot_loads_total",
		"serve_analyses_total", "serve_shed_total", "entity_intern_hits_total", "entity_intern_misses_total"}
	before := make(map[string]uint64)
	for _, n := range names {
		before[n] = s.counter(n)
	}
	rtBefore := readRuntime()
	sr.next.Store(0) // the traced load replays the baseline's requests
	samples, wall := sr.load(s, seq, opt.seconds)
	rt := readRuntime().since(rtBefore)
	delta := func(n string) float64 { return float64(s.counter(n) - before[n]) }

	setIO(r, reads)
	setRuntime(r, rt)
	hits, misses := delta("serve_cache_hits_total"), delta("serve_cache_misses_total")
	r.set("serve.hits", hits)
	r.set("serve.misses", misses)
	if hits+misses > 0 {
		r.set("serve.hit_ratio", hits/(hits+misses))
	}
	r.set("serve.snapshot_loads", delta("serve_snapshot_loads_total"))
	r.set("serve.analyses", delta("serve_analyses_total"))
	r.set("serve.shed", delta("serve_shed_total"))
	r.set("entity.table_ips", float64(s.reg.Gauge("entity_table_ips").Value()))
	if eh, em := delta("entity_intern_hits_total"), delta("entity_intern_misses_total"); eh+em > 0 {
		r.set("entity.hit_ratio", eh/(eh+em))
	}
	for kind, name := range endpoints {
		if lat := latencies(samples, kind); len(lat) > 0 {
			r.set("serve."+name+".p50_ms", percentile(lat, 500))
		}
	}
	r.set("trace.overhead_frac", okPerSecond(baseSamples, baseWall)/okPerSecond(samples, wall)-1)

	// Every distinct request is checked at least once.
	sr.sweep(s)
	env := s.store.Env()
	if err := sr.stop(s); err != nil {
		return nil, err
	}
	sr.client.CloseIdleConnections()
	r.check(sr.analyses == 0, "%d re-analyses: the fixture's snapshots were not used", sr.analyses)
	if err := renderLayers(r, sr.dir, sr.weeks, env); err != nil {
		return nil, err
	}
	r.set("fail_frac", r.tally.frac())
	return r, nil
}

// renderReps is how often each direct call is repeated per week.
const renderReps = 5

// sink keeps the results of timed calls alive.
var sink interface{}

// timeMedian runs fn reps times and returns its median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds)), nil
}

// renderLayers times the exported render functions and the snapshot
// codec by calling them directly on every week's snapshot, with the
// serving environment env.
func renderLayers(r *result, dir string, weeks []int, env *pipeline.Env) error {
	const k = 10 // serve.Config's default TopK
	calls := []struct {
		metric string
		fn     func(*snapshot.Snapshot) (interface{}, error)
	}{
		{"serve.render.summary_us", func(s *snapshot.Snapshot) (interface{}, error) { return serve.Summarize(s), nil }},
		{"serve.render.servers_us", func(s *snapshot.Snapshot) (interface{}, error) { return serve.TopServers(s, k), nil }},
		{"serve.render.ases_us", func(s *snapshot.Snapshot) (interface{}, error) { return serve.TopASes(env, s, k), nil }},
		{"serve.render.visibility_us", func(s *snapshot.Snapshot) (interface{}, error) { return serve.VisibilityView(env, s, k) }},
		{"serve.render.links_us", func(s *snapshot.Snapshot) (interface{}, error) { return serve.TopLinks(s, k) }},
	}
	totals := make([]time.Duration, len(calls))
	snaps := make([]*snapshot.Snapshot, len(weeks))
	var load, decode time.Duration
	var snapBytes int
	for i, wk := range weeks {
		path := filepath.Join(dir, snapshot.FileName(wk))
		d, err := timeMedian(renderReps, func() error {
			snap, err := snapshot.LoadFileFS(vfs.OS{}, path)
			snaps[i] = snap
			return err
		})
		if err != nil {
			return err
		}
		load += d
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		snapBytes += len(buf)
		d, err = timeMedian(renderReps, func() error {
			snap, err := snapshot.Decode(buf)
			sink = snap
			return err
		})
		if err != nil {
			return err
		}
		decode += d
		for c, call := range calls {
			d, err := timeMedian(renderReps, func() error {
				v, err := call.fn(snaps[i])
				sink = v
				return err
			})
			if err != nil {
				return err
			}
			totals[c] += d
		}
	}
	n := float64(len(weeks))
	for c, call := range calls {
		r.set(call.metric, float64(totals[c])/float64(time.Microsecond)/n)
	}
	d, err := timeMedian(3, func() error {
		series, err := serve.ChurnSeries(env, weeks, snaps)
		sink = series
		return err
	})
	if err != nil {
		return err
	}
	r.set("serve.render.churn_ms", millis(d))
	r.set("snapshot.load_ms", millis(load)/n)
	r.set("snapshot.decode_ms", millis(decode)/n)
	r.set("snapshot.bytes", float64(snapBytes))
	return nil
}
