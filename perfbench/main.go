// Command perfbench is the repository benchmark: it runs one workload
// (the cold 17-week supervised campaign, or ixpserve with a cache smaller
// than its working set), checks the program's outputs, and prints the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1). The
// last line of standard output is a JSON result:
//
//	{"correct": true, "attempted": 34, "failed": 0, "metrics": {...}}
//
// Build and run it through run.sh from the repository root; see
// README.md for the workloads and what each metric means.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// options are one run's settings.
type options struct {
	root      string
	workload  string
	seed      int64
	worldSeed int64
	seconds   time.Duration
	trace     bool
	work      string // scratch directory for campaign runs, removed at exit
}

// result is what a run measured and checked.
type result struct {
	mu       sync.Mutex // guards problems: serve clients check concurrently
	problems []string
	tally    tally
	metrics  map[string]float64
	// notes are printed with the metrics, e.g. what a metric's value is
	// a median of.
	notes map[string]string
	// info are the wall-clock figures of an untraced run. They are
	// printed, not reported in the JSON result: on a shared host they move
	// with the neighbours' load by more than any bound allows.
	info []infoLine
}

// infoLine is one printed figure that is not a bounded metric.
type infoLine struct {
	name, unit, note string
	value            float64
}

func newResult() *result {
	return &result{metrics: make(map[string]float64), notes: make(map[string]string)}
}

// check records a failed correctness gate.
func (r *result) check(ok bool, format string, args ...interface{}) {
	if !ok {
		r.mu.Lock()
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
		r.mu.Unlock()
	}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// inform records a printed figure that is not a bounded metric.
func (r *result) inform(name, unit string, v float64, note string) {
	r.info = append(r.info, infoLine{name: name, unit: unit, note: note, value: v})
}

// zeroLayers starts a traced run with every per-layer metric at 0, the
// value of a layer that does no work on the workload.
func (r *result) zeroLayers() {
	for _, m := range perLayer {
		r.metrics[m.Name] = 0
	}
}

func main() {
	var (
		opt       options
		seconds   int
		trace     int
		writeTo   string
		fixtureTo string
	)
	flag.StringVar(&opt.root, "root", ".", "repository checkout the benchmark runs in; all scratch files go under its .bench_build/")
	flag.StringVar(&opt.workload, "workload", "", "workload to run: campaign or serve-miss")
	flag.Int64Var(&opt.seed, "seed", 1, "campaign: world seed; serve-miss: request-sequence seed")
	flag.Int64Var(&opt.worldSeed, "world-seed", defaultWorldSeed, "serve-miss: world seed of the campaign fixture")
	flag.IntVar(&seconds, "seconds", runSeconds, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&writeTo, "write-spec", "", "write the benchmark definition (BENCHMARK.json) to this path and exit")
	flag.StringVar(&fixtureTo, "build-fixture", "", "internal: build the serve fixture into this directory and exit")
	flag.Parse()

	if writeTo != "" {
		if err := writeSpec(writeTo); err != nil {
			fatal(err)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if fixtureTo != "" {
		if err := buildFixture(ctx, fixtureTo, opt.worldSeed); err != nil {
			fatal(err)
		}
		return
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatal(errors.New("-seconds must be at least 1 and -trace 0 or 1"))
	}
	opt.seconds = time.Duration(seconds) * time.Second
	opt.trace = trace == 1

	var run func(context.Context, *options) (*result, error)
	switch opt.workload {
	case "campaign":
		run = runCampaign
		if opt.trace {
			run = traceCampaign
		}
	case "serve-miss":
		run = runServe
		if opt.trace {
			run = traceServe
		}
	default:
		fatal(fmt.Errorf("unknown -workload %q (want campaign or serve-miss)", opt.workload))
	}

	root, err := filepath.Abs(opt.root)
	if err != nil {
		fatal(err)
	}
	opt.root = root
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fatal(err)
	}
	if opt.work, err = os.MkdirTemp(build, "work-"); err != nil {
		fatal(err)
	}
	host := hostInfo(&opt)
	res, err := run(ctx, &opt)
	if rerr := os.RemoveAll(opt.work); err == nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	if err := report(&opt, host, res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// hostInfo records the host and configuration a result was measured on.
func hostInfo(opt *options) map[string]interface{} {
	info := map[string]interface{}{
		"goos":             runtime.GOOS,
		"goarch":           runtime.GOARCH,
		"cpu":              cpuModel(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go":               runtime.Version(),
		"scale":            scale,
		"samples_per_week": samplesPerWeek,
		"workload":         opt.workload,
		"trace":            opt.trace,
		"seconds":          opt.seconds.Seconds(),
		"campaign_fs":      fsType(opt.work),
	}
	if opt.workload == "campaign" {
		info["world_seed"] = opt.seed
	} else {
		info["world_seed"] = opt.worldSeed
		info["request_seed"] = opt.seed
	}
	return info
}

// cpuModel reads the first CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the host line, one line per metric, any failed gate,
// and, last, the JSON result.
func report(opt *options, host map[string]interface{}, res *result) error {
	hostLine, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hostLine)

	var names []string
	if opt.trace {
		for _, m := range perLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range endToEnd {
			names = append(names, m.Name)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(names))
	for _, name := range names {
		v, ok := res.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", name, v)
		}
		out[name] = value{v, unitOf(name)}
		note := ""
		if n, ok := res.notes[name]; ok {
			note = "  (" + n + ")"
		}
		fmt.Printf("%-36s %14.6g %s%s\n", name, v, unitOf(name), note)
	}
	for _, l := range res.info {
		fmt.Printf("%-36s %14.6g %s  (not bounded: %s)\n", l.name, l.value, l.unit, l.note)
	}
	fmt.Printf("fail_frac %.6g (%d of %d failed)\n", res.tally.frac(), res.tally.failed, res.tally.attempted)
	for _, p := range res.problems {
		fmt.Println("GATE FAILED:", p)
	}
	if res.tally.attempted < 1 {
		return errors.New("nothing was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.problems) == 0, res.tally.attempted, res.tally.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
