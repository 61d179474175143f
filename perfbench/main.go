// Command perfbench is driftclean's end-to-end benchmark. It runs one
// workload against the shipped entry points with the shipped default
// configuration — driftclean.CleanContext, driftclean.Session and the
// driftserve binary over HTTP loopback — checks the outputs, and prints
// one JSON result as its last line of standard output.
//
//	perfbench -root DIR -driftserve BIN --workload W --seed N --seconds S --trace 0|1
//
// run.sh builds both binaries and passes -root and -driftserve. With
// --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// run records spans around each layer call from the benchmark's side
// and the result holds the per-layer metrics. README.md lists the
// workloads, the metrics and which layer should move which metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
// What the operation and the throughput are depends on the workload:
// a whole batch run and sentences/s, one checkpoint and sentences/s, one
// query and requests served per CPU-second of driftserve. A pipeline
// latency is the mean over the run's corpora of each one's fastest
// operation; a query latency is the median at the fixed rate.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"latency_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the metrics a --trace 1 run reports, on every workload.
// A layer the workload does not run reports 0.
var perLayer = []metricDef{
	{"world.new_ms", "ms"},
	{"corpus.generate_ms", "ms"},
	{"extract.append_ms", "ms"},
	{"extract.replay_ms", "ms"},
	{"extract.replayed_sentences", "count"},
	{"extract.batch_share", "ratio"},
	{"core.analyze_ms", "ms"},
	{"core.analyze_calls", "count"},
	{"core.task_rebuilds", "count"},
	{"core.task_reuse_ratio", "ratio"},
	{"core.round_task_reuse_ratio", "ratio"},
	{"rank.walk_reuse", "count"},
	{"core.detect_ms", "ms"},
	{"clean.self_ms", "ms"},
	{"clean.rounds", "count"},
	{"clean.dps", "count"},
	{"clean.rolled_back_pairs", "count"},
	{"eval.report_ms", "ms"},
	{"snapshot.freeze_ms", "ms"},
	{"kb.pairs", "count"},
	{"kb.extractions", "count"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"serve.router_us", "us"},
	{"serve.fanout", "shards/query"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"snapshot.lookup_us", "us"},
	{"json.encode_us", "us"},
	{"http.resp_bytes", "bytes"},
	{"http.overhead_us", "us"},
	{"kbio.freeze_file_ms", "ms"},
	{"snapshot.partition_ms", "ms"},
	{"serve.swaps", "count"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_ms", "ms"},
}

var workloads = []string{"batch", "trickle", "serve-hot", "serve-cold"}

// env is one invocation's settings.
type env struct {
	workload   string
	seed       int64
	seconds    time.Duration
	trace      bool
	root       string
	driftserve string
	// dir is this run's own directory under .bench_build, removed
	// when the run ends.
	dir string
}

// report collects what a workload measured.
type report struct {
	tally
	e2e    map[string]float64
	layers map[string]float64
	// lines are human-readable results printed before the JSON line:
	// the workload's own metrics by name and unit, and check outcomes.
	lines []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// note adds a human-readable metric line.
func (r *report) note(name string, value float64, unit, detail string) {
	line := fmt.Sprintf("metric %-24s %14.6g %s", name, value, unit)
	if detail != "" {
		line += "  (" + detail + ")"
	}
	r.lines = append(r.lines, line)
}

// noteTail adds a tail metric line with its percentile and sample count.
func (r *report) noteTail(name string, t tailStat, unit string) {
	if !t.OK {
		r.lines = append(r.lines, fmt.Sprintf("metric %-24s %14s %s  (only %d samples: none has %d beyond it)",
			name, "n/a", unit, t.Samples, minBeyond))
		return
	}
	r.note(name, t.Value, unit, fmt.Sprintf("p%.2f of %d samples, %d beyond", t.Percentile, t.Samples, minBeyond))
}

func main() {
	var (
		workload   = flag.String("workload", "", "batch, trickle, serve-hot, serve-cold, or all")
		seed       = flag.Int64("seed", 1, "workload seed: the world and every schedule derive from it")
		seconds    = flag.Int("seconds", 15, "how long one run measures")
		trace      = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		root       = flag.String("root", ".", "repository checkout root")
		driftserve = flag.String("driftserve", "", "path to the driftserve binary")
		writePins  = flag.String("write-pins", "", "compute the batch output pins for seeds LO-HI into perfbench/pins.json and exit")
	)
	flag.Parse()
	if *writePins != "" {
		if err := runWritePins(*root, *writePins); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	e := env{
		workload:   *workload,
		seed:       *seed,
		seconds:    time.Duration(*seconds) * time.Second,
		trace:      *trace == 1,
		root:       *root,
		driftserve: *driftserve,
	}
	if e.workload == "all" {
		os.Exit(runAll(e))
	}
	known := false
	for _, w := range workloads {
		known = known || w == e.workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", e.workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	// A benchmark stopped from outside still stops the servers it
	// started.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()
	res, err := run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(res)
}

// run executes one workload and renders its result line.
func run(e env) (string, error) {
	dir, err := os.MkdirTemp(filepath.Join(e.root, ".bench_build"), "run-")
	if err != nil {
		return "", fmt.Errorf("creating run directory: %w", err)
	}
	defer os.RemoveAll(dir)
	e.dir = dir

	r := newReport()
	switch e.workload {
	case "batch":
		err = runBatch(e, r)
	case "trickle":
		err = runTrickle(e, r)
	default:
		err = runServe(e, r, e.workload == "serve-cold")
	}
	if err != nil {
		return "", err
	}
	r.note("fail_ratio", r.ratio(), "failed/attempted", fmt.Sprintf("%d of %d; causes %v", r.Failed, r.Attempted, r.Causes))
	for _, line := range r.lines {
		fmt.Println(line)
	}
	defs, values := endToEnd, r.e2e
	if e.trace {
		defs, values = perLayer, r.layers
	}
	return resultLine(r.tally, defs, values)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final JSON line. Every defined metric must have
// been measured; a missing one is a bug in the workload.
func resultLine(t tally, defs []metricDef, values map[string]float64) (string, error) {
	out := resultJSON{
		Correct:   t.Failed == 0 && t.Attempted > 0,
		Attempted: t.Attempted,
		Failed:    t.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// runAll runs every workload in its own process, so each reports its own
// peak memory, and passes their output through. It returns the first
// non-zero exit code.
func runAll(e env) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	trace := "0"
	if e.trace {
		trace = "1"
	}
	code := 0
	for _, w := range workloads {
		fmt.Printf("== workload %s\n", w)
		cmd := exec.Command(self, "-root", e.root, "-driftserve", e.driftserve, "--workload", w,
			"--seed", strconv.FormatInt(e.seed, 10), "--seconds", strconv.Itoa(int(e.seconds/time.Second)), "--trace", trace)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil && code == 0 {
			code = 1
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				code = ee.ExitCode()
			}
		}
	}
	return code
}

// cpuSeconds reads the CPU time a process has used, user and system,
// from /proc/<pid>/stat, in clock ticks of 1/100 s.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name in parentheses may hold spaces; the fields after
	// it are fixed: utime and stime are the 12th and 13th.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b)[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat times", pid)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMiB reads a process's peak resident set size (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kib, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kib / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// mix derives an independent 63-bit seed for one purpose from the
// workload seed (splitmix64 finalizer).
func mix(seed int64, purpose uint64) int64 {
	z := uint64(seed) + purpose*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
