package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"ixplens/internal/capture"
	"ixplens/internal/core/dissect"
	"ixplens/internal/ixp"
	"ixplens/internal/netmodel"
	"ixplens/internal/obs"
	"ixplens/internal/pipeline"
	"ixplens/internal/sflow"
	"ixplens/internal/snapshot"
	"ixplens/internal/supervise"
	"ixplens/internal/traffic"
	"ixplens/internal/vfs"
)

const (
	// setupReps is how many times a run sets up besides the set-up of
	// each cold campaign, so setup_s is a median of many short samples.
	setupReps = 21
	// coldRunSeconds is the nominal length of one cold campaign: a run
	// measures -seconds/coldRunSeconds of them, at least two. The count
	// depends on -seconds only, not on the host's speed, so the number of
	// per-week samples (and with it the percentile p99_ms reports) is
	// the same on every run.
	coldRunSeconds = 7
	minColdRuns    = 2
)

func worldConfig(seed int64) netmodel.Config {
	cfg := netmodel.PaperScale(scale)
	cfg.Seed = seed
	return cfg
}

func trafficOptions() traffic.Options {
	return traffic.Options{SamplesPerWeek: samplesPerWeek, SamplingRate: 16384, SnapLen: 128}
}

// newEnv builds a campaign environment and returns how long that took.
func newEnv(seed int64) (*pipeline.Env, time.Duration, error) {
	start := time.Now()
	env, err := pipeline.NewEnv(worldConfig(seed), trafficOptions())
	return env, time.Since(start), err
}

// campaignRun is one supervise.New(...).Run over a campaign directory.
type campaignRun struct {
	wall      time.Duration
	weekMs    []float64 // time between successive week completions
	digests   []string  // snapshot digest per week
	rep       *supervise.Report
	stageRuns int
}

// supervised runs a campaign over dir and times it. A non-nil tr
// records the run as a span with one child span per stage, from
// BeforeStage to the stage's AfterCheckpoint.
func supervised(ctx context.Context, env *pipeline.Env, dir string, reg *obs.Registry, tr *tracer) (*campaignRun, error) {
	out := &campaignRun{}
	root := -1
	if tr != nil {
		root = tr.begin("supervise.run", -1)
	}
	start := time.Now()
	sup, err := supervise.New(env, dir, supervise.Config{}, reg)
	if err != nil {
		return nil, err
	}
	defer sup.Close()
	type key struct {
		week  int
		stage string
	}
	open := make(map[key]int)
	sup.Hooks.BeforeStage = func(week int, stage string, _ int) error {
		out.stageRuns++
		if tr != nil {
			open[key{week, stage}] = tr.begin("stage."+stage, root)
		}
		return nil
	}
	sup.Hooks.AfterCheckpoint = func(week int, stage string) error {
		if id, ok := open[key{week, stage}]; ok {
			tr.end(id)
			delete(open, key{week, stage})
		}
		return nil
	}
	last := start
	sup.Hooks.OnWeek = func(supervise.WeekStatus, *snapshot.Snapshot) {
		now := time.Now()
		out.weekMs = append(out.weekMs, millis(now.Sub(last)))
		last = now
	}
	rep, err := sup.Run(ctx)
	out.wall = time.Since(start)
	if tr != nil {
		tr.end(root)
	}
	if err != nil {
		return nil, err
	}
	out.rep = rep
	for _, ws := range rep.Weeks {
		out.digests = append(out.digests, ws.SnapshotDigest)
	}
	return out, nil
}

// checkCold applies the cold-campaign gates: every week done, none
// quarantined, exactly one run of each stage per week.
func checkCold(r *result, what string, run *campaignRun, weeks int) {
	r.check(run.rep.Completed == weeks && run.rep.Quarantined == 0,
		"%s: %d of %d weeks done, %d quarantined", what, run.rep.Completed, weeks, run.rep.Quarantined)
	r.check(run.stageRuns == 3*weeks, "%s: %d stage runs, want %d", what, run.stageRuns, 3*weeks)
}

// checkDigests requires got to match the reference snapshot digests.
func checkDigests(r *result, what string, got, want []string) {
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] != "" && got[i] == want[i]
	}
	r.check(same, "%s: snapshot digests differ from the reference run", what)
}

// reference runs the cold campaign at GOMAXPROCS=1 and returns it: its
// digests are what every parallel run must reproduce.
func reference(ctx context.Context, seed int64, dir string, tr *tracer, setup func(*pipeline.Env) error) (*campaignRun, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	env, _, err := newEnv(seed)
	if err != nil {
		return nil, err
	}
	if setup != nil {
		if err := setup(env); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(dir)
	return supervised(ctx, env, dir, nil, tr)
}

// runCampaign is the untraced campaign workload: cold campaigns into
// empty directories, each followed by a resume, then the GOMAXPROCS=1
// reference.
func runCampaign(ctx context.Context, opt *options) (*result, error) {
	r := newResult()
	weeks := worldConfig(opt.seed).Weeks
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Start each from a collected heap, as the cold runs do, so that
		// no sample pays for collecting the previous one's world.
		runtime.GC()
		_, d, err := newEnv(opt.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(d))
	}
	coldRuns := int(opt.seconds / (coldRunSeconds * time.Second))
	if coldRuns < minColdRuns {
		coldRuns = minColdRuns
	}
	var walls, resumes, weekMs, peaks, cpus []float64
	var digests [][]string
	var coldTotal time.Duration
	for i := 0; i < coldRuns; i++ {
		// Return the previous campaign's memory to the OS and restart the
		// peak, so each peak is that of one campaign.
		debug.FreeOSMemory()
		resetPeakRSS()
		env, d, err := newEnv(opt.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(d))
		dir := filepath.Join(opt.work, fmt.Sprintf("cold-%d", i))
		cpu := cpuTime()
		cold, err := supervised(ctx, env, dir, nil, nil)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, millis(cpuTime()-cpu)/float64(weeks))
		checkCold(r, "cold run", cold, weeks)
		r.tally.weeks(len(cold.rep.Weeks), cold.rep.Quarantined)
		resume, err := supervised(ctx, env, dir, nil, nil)
		if err != nil {
			return nil, err
		}
		r.check(resume.rep.Resumed == weeks && resume.stageRuns == 0,
			"resume: %d of %d weeks resumed with %d stage runs", resume.rep.Resumed, weeks, resume.stageRuns)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		peaks = append(peaks, peakRSSMB())
		walls = append(walls, seconds(cold.wall))
		resumes = append(resumes, seconds(resume.wall))
		weekMs = append(weekMs, cold.weekMs...)
		digests = append(digests, cold.digests)
		coldTotal += cold.wall
	}
	ref, err := reference(ctx, opt.seed, filepath.Join(opt.work, "reference"), nil, nil)
	if err != nil {
		return nil, err
	}
	checkCold(r, "reference run", ref, weeks)
	r.tally.weeks(len(ref.rep.Weeks), ref.rep.Quarantined)
	for _, d := range digests {
		checkDigests(r, "cold run", d, ref.digests)
	}

	sorted := sortedCopy(weekMs)
	pm, tailMs := tail(sorted)
	r.set("setup_s", median(setups))
	r.set("cpu_ms_per_op", median(cpus))
	r.set("peak_rss_mb", trimmedMean(peaks))
	r.notes["setup_s"] = fmt.Sprintf("median of %d pipeline.NewEnv", len(setups))
	r.notes["cpu_ms_per_op"] = fmt.Sprintf("per week, median of %d cold runs", len(cpus))
	r.notes["peak_rss_mb"] = fmt.Sprintf("trimmed mean of %d cold runs' peaks", len(peaks))
	r.inform("wall_s", "s", median(walls), fmt.Sprintf("median of %d cold runs", len(walls)))
	r.inform("resume_s", "s", median(resumes), fmt.Sprintf("median of %d resumes", len(resumes)))
	r.inform("rps", "1/s", float64(len(weekMs))/coldTotal.Seconds(), "weeks completed per second of cold run")
	r.inform("p50_ms", "ms", percentile(sorted, 500), fmt.Sprintf("per-week latency, %d weeks", len(weekMs)))
	r.inform("p99_ms", "ms", tailMs, fmt.Sprintf("p%g of %d per-week latencies", float64(pm)/10, len(weekMs)))
	return r, nil
}

// campaignInstruments are the traced run's wrappers around one Env.
type campaignInstruments struct {
	reg       *obs.Registry
	io        *ioStats
	analyzers map[string]*analyzerStats
}

// instrument installs the timing filesystem, the timing analyzer
// registry and an obs registry on env.
func instrument(env *pipeline.Env) (*campaignInstruments, error) {
	reg, stats, err := timedRegistry()
	if err != nil {
		return nil, err
	}
	inst := &campaignInstruments{reg: obs.NewRegistry(), io: &ioStats{}, analyzers: stats}
	env.FS = timedFS{vfs.OS{}, inst.io}
	env.Analyzers = reg
	env.Instrument(inst.reg)
	return inst, nil
}

// untracedCold runs one untraced cold campaign into a fresh directory
// under opt.work, applies the cold gates and removes the directory.
func untracedCold(ctx context.Context, r *result, opt *options, name string) (*campaignRun, error) {
	env, _, err := newEnv(opt.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(opt.work, name)
	run, err := supervised(ctx, env, dir, nil, nil)
	if err != nil {
		return nil, err
	}
	checkCold(r, "untraced run", run, worldConfig(opt.seed).Weeks)
	r.tally.weeks(len(run.rep.Weeks), run.rep.Quarantined)
	return run, os.RemoveAll(dir)
}

// traceCampaign is the traced campaign workload. It runs a traced cold
// campaign for the stage, vfs, analyzer, entity and runtime metrics
// between two untraced ones (the overhead baseline), then calls the
// layers that only run nested inside others on their own over the
// traced run's files, and finally repeats the traced campaign at
// GOMAXPROCS=1.
func traceCampaign(ctx context.Context, opt *options) (*result, error) {
	r := newResult()
	r.zeroLayers()
	weeks := worldConfig(opt.seed).Weeks

	base, err := untracedCold(ctx, r, opt, "baseline-1")
	if err != nil {
		return nil, err
	}

	env, _, err := newEnv(opt.seed)
	if err != nil {
		return nil, err
	}
	inst, err := instrument(env)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	dir := filepath.Join(opt.work, "traced")
	before := readRuntime()
	traced, err := supervised(ctx, env, dir, inst.reg, tr)
	if err != nil {
		return nil, err
	}
	rt := readRuntime().since(before)
	checkCold(r, "traced run", traced, weeks)
	checkDigests(r, "traced run", traced.digests, base.digests)
	r.tally.weeks(len(traced.rep.Weeks), traced.rep.Quarantined)
	// A second untraced run after the traced one, so the overhead
	// compares against a median that brackets it in time.
	base2, err := untracedCold(ctx, r, opt, "baseline-2")
	if err != nil {
		return nil, err
	}
	checkDigests(r, "second untraced run", base2.digests, base.digests)

	r.set("supervise.wall_s", seconds(tr.total("supervise.run")))
	r.set("supervise.capture_s", seconds(tr.total("stage."+supervise.StageCapture)))
	r.set("supervise.analyze_s", seconds(tr.total("stage."+supervise.StageAnalyze)))
	r.set("supervise.snapshot_s", seconds(tr.total("stage."+supervise.StageSnapshot)))
	r.set("supervise.other_s", seconds(tr.self("supervise.run")))
	r.set("supervise.stage_runs", float64(traced.stageRuns))
	setIO(r, inst.io)
	for name, st := range inst.analyzers {
		r.set("analysis."+name+".observe_s", seconds(time.Duration(st.observeNs.Load())))
		r.set("analysis."+name+".finish_s", seconds(time.Duration(st.finishNs.Load())))
		r.set("analysis."+name+".product_bytes", float64(st.productBytes.Load()))
	}
	setEntity(r, inst.reg)
	setRuntime(r, rt)

	if err := isolatedLayers(r, env, dir, worldConfig(opt.seed)); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}

	procs1, err := reference(ctx, opt.seed, filepath.Join(opt.work, "procs1"), newTracer(), func(env *pipeline.Env) error {
		_, err := instrument(env)
		return err
	})
	if err != nil {
		return nil, err
	}
	checkCold(r, "GOMAXPROCS=1 run", procs1, weeks)
	checkDigests(r, "traced run", traced.digests, procs1.digests)
	r.tally.weeks(len(procs1.rep.Weeks), procs1.rep.Quarantined)
	r.set("campaign.wall_s_procs1", seconds(procs1.wall))
	r.set("campaign.procs_speedup", procs1.wall.Seconds()/traced.wall.Seconds())
	r.set("trace.overhead_frac", traced.wall.Seconds()/median([]float64{base.wall.Seconds(), base2.wall.Seconds()})-1)
	r.set("fail_frac", r.tally.frac())
	return r, nil
}

// setIO reports the timing filesystem's totals.
func setIO(r *result, st *ioStats) {
	r.set("vfs.write_s", seconds(time.Duration(st.writeNs.Load())))
	r.set("vfs.sync_s", seconds(time.Duration(st.syncNs.Load())))
	r.set("vfs.read_s", seconds(time.Duration(st.readNs.Load())))
	r.set("vfs.bytes_written", float64(st.written.Load()))
	r.set("vfs.bytes_read", float64(st.read.Load()))
	r.set("vfs.syncs", float64(st.syncs.Load()))
}

// setEntity reports the interning layer's obs counters.
func setEntity(r *result, reg *obs.Registry) {
	hits := float64(reg.Counter("entity_intern_hits_total").Value())
	misses := float64(reg.Counter("entity_intern_misses_total").Value())
	r.set("entity.table_ips", float64(reg.Gauge("entity_table_ips").Value()))
	if hits+misses > 0 {
		r.set("entity.hit_ratio", hits/(hits+misses))
	}
}

func setRuntime(r *result, rt runtimeStats) {
	r.set("runtime.gc_pause_s", rt.gcPauseS)
	r.set("runtime.gc_cycles", float64(rt.gcCycles))
	r.set("runtime.alloc_mb", float64(rt.allocBytes)/(1<<20))
}

// isolatedLayers calls, week by week, the layers that run only nested
// inside another layer's call, on the inputs of the campaign in dir:
// generation (with each datagram's encode as a child span, so
// generation is reported as self time), container decode, classify,
// and the snapshot codec.
func isolatedLayers(r *result, env *pipeline.Env, dir string, cfg netmodel.Config) error {
	tr := newTracer()
	var samples, datagrams, records int
	var capBytes, snapBytes int64
	var decode, classify, snapEncode, snapLoad, snapDecode time.Duration
	for wk := cfg.FirstWeek; wk <= cfg.LastWeek(); wk++ {
		bw, err := sflow.NewBlockWriter(io.Discard, false)
		if err != nil {
			return err
		}
		gen := tr.begin("traffic.generate", -1)
		col := ixp.NewCollector(env.Fabric, env.Opts.SamplingRate, func(d *sflow.Datagram) error {
			id := tr.begin("sflow.encode", gen)
			err := bw.WriteDatagram(d)
			tr.end(id)
			datagrams++
			return err
		})
		col.SetBufferReuse(true)
		stats, err := env.Gen.GenerateWeek(wk, col)
		tr.end(gen)
		if err != nil {
			return err
		}
		id := tr.begin("sflow.encode", -1)
		err = bw.Close()
		tr.end(id)
		if err != nil {
			return err
		}
		samples += stats.Samples

		raw, err := os.ReadFile(filepath.Join(dir, capture.WeekFile(wk)))
		if err != nil {
			return err
		}
		capBytes += int64(len(raw))
		start := time.Now()
		if err := drain(raw, nil); err != nil {
			return err
		}
		decode += time.Since(start)
		src := &dissect.SliceSource{}
		if err := drain(raw, func(d *sflow.Datagram) { src.Datagrams = append(src.Datagrams, *d.Clone()) }); err != nil {
			return err
		}
		start = time.Now()
		counts, err := dissect.Process(src, dissect.NewClassifier(env.Fabric), nil)
		classify += time.Since(start)
		if err != nil {
			return err
		}
		records += counts.Total

		spath := filepath.Join(dir, snapshot.FileName(wk))
		start = time.Now()
		if _, err := snapshot.LoadFileFS(vfs.OS{}, spath); err != nil {
			return err
		}
		snapLoad += time.Since(start)
		buf, err := os.ReadFile(spath)
		if err != nil {
			return err
		}
		snapBytes += int64(len(buf))
		start = time.Now()
		snap, err := snapshot.Decode(buf)
		snapDecode += time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		enc, err := snapshot.AppendEncode(nil, snap)
		snapEncode += time.Since(start)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(enc, buf), "week %d: snapshot re-encode differs from the file", wk)
	}
	n := float64(cfg.Weeks)
	r.set("traffic.generate_s", seconds(tr.self("traffic.generate")))
	r.set("traffic.samples", float64(samples))
	r.set("ixp.datagrams", float64(datagrams))
	r.set("sflow.encode_s", seconds(tr.total("sflow.encode")))
	r.set("sflow.decode_s", seconds(decode))
	r.set("sflow.capture_bytes", float64(capBytes))
	r.set("dissect.classify_s", seconds(classify))
	r.set("dissect.records", float64(records))
	r.set("snapshot.encode_s", seconds(snapEncode))
	r.set("snapshot.bytes", float64(snapBytes))
	r.set("snapshot.load_ms", millis(snapLoad)/n)
	r.set("snapshot.decode_ms", millis(snapDecode)/n)
	return nil
}

// drain decodes a whole capture container from memory, passing each
// datagram to fn (which may be nil).
func drain(raw []byte, fn func(*sflow.Datagram)) error {
	br, err := sflow.NewBlockReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	var d sflow.Datagram
	for {
		err := br.Next(&d)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if fn != nil {
			fn(&d)
		}
	}
}
