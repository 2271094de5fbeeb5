// Command perfbench is the repository benchmark: four named workloads
// (table3, interleave, fuzz, daemon) run from one process, each checked for
// correctness while it is timed.
//
//	go run . --workload table3 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// every end-to-end metric; with --trace 1 the run measures the workload
// once untraced and once with spans recorded around every call into a
// layer, and the last line holds the per-layer metrics, including the
// traced-minus-untraced overhead of each end-to-end metric. The lines
// before it are a report: machine stamps, sample counts, the raw
// unscaled timings, notes and failures. BENCHMARK.json at the repository
// root names the metrics.
//
// Timings are in reference seconds: CPU time (the daemon's request
// latencies: wall time) scaled by a calibration kernel sampled throughout
// the run, so that runs on a machine whose speed drifts agree; see
// calibrate.go. pass_s is thus the CPU cost of a pass, all threads
// together, which for the daemon's concurrent clients and server exceeds
// its wall time.
//
// The process exits 1 when any verdict, outcome set, fuzz gate or daemon
// response is wrong, and 2 when the workload cannot run at all.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a smoke-test size (set by the
	// smoke tests only).
	tiny bool
	// inject corrupts one expected result or injects a semantics bug, to
	// prove the gates fire (set by the smoke tests only).
	inject bool
	// spans is where a traced run writes its spans ("" = nowhere).
	spans string
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEndMetrics are measured untraced on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"programs_per_s", "programs/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"alloc_bytes", "bytes"},
	{"allocs", "count"},
	{"peak_heap_mb", "MB"},
}

// layerMetrics come from the traced run. A workload that does not exercise
// a layer reports 0 for it and says so in the report's notes.
var layerMetrics = []metricDef{
	{"core.cert.hits", "count"},
	{"core.cert.misses", "count"},
	{"core.cert.hit_rate", "share"},
	{"core.cert.entries", "count"},
	{"core.certify_us", "us"},
	{"core.certify_calls", "count"},
	{"core.successors_us", "us"},
	{"core.successors_calls", "count"},
	{"core.encode_us", "us"},
	{"core.intern_us", "us"},
	{"explore.promise_first.interned", "count"},
	{"explore.promise_first.busy_s", "s"},
	{"explore.promise_first.states", "count"},
	{"explore.naive.busy_s", "s"},
	{"explore.naive.states", "count"},
	{"explore.symmetry.hits", "count"},
	{"explore.symmetry.classes", "count"},
	{"explore.pruned_states", "count"},
	{"flat.busy_s", "s"},
	{"flat.states", "count"},
	{"flat.symmetry_hits", "count"},
	{"flat.pruned_states", "count"},
	{"axiomatic.busy_s", "s"},
	{"axiomatic.p50_ms", "ms"},
	{"axiomatic.p99_ms", "ms"},
	{"fuzz.iterations", "count"},
	{"fuzz.dups", "count"},
	{"fuzz.symmetry_skips", "count"},
	{"fuzz.cache_hits", "count"},
	{"fuzz.incomplete", "count"},
	{"fuzz.corpus_size", "count"},
	{"fuzz.coverage", "count"},
	{"fuzz.useful_share", "share"},
	{"litmus.generate_us", "us"},
	{"litmus.format_us", "us"},
	{"litmus.parse_us", "us"},
	{"lang.compile_us", "us"},
	{"server.handler_us.check_miss", "us"},
	{"server.handler_us.check_hit", "us"},
	{"server.handler_us.stats", "us"},
	{"client.roundtrip_us", "us"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_rate", "share"},
	{"server.stats.checks", "count"},
	{"server.stats.cache_hits", "count"},
	{"daemon.cold_p50_ms", "ms"},
	{"daemon.cold_p99_ms", "ms"},
	{"daemon.hit_p50_ms", "ms"},
	{"daemon.hit_p99_ms", "ms"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"self_share.setup", "share"},
	{"self_share.bench", "share"},
	{"self_share.explore", "share"},
	{"self_share.flat", "share"},
	{"self_share.fuzz", "share"},
	{"self_share.litmus", "share"},
	{"self_share.lang", "share"},
	{"self_share.server", "share"},
	{"self_share.client", "share"},
	{"trace_overhead.setup_s", "s"},
	{"trace_overhead.pass_s", "s"},
	{"trace_overhead.programs_per_s", "programs/s"},
	{"trace_overhead.p50_ms", "ms"},
	{"trace_overhead.tail_ms", "ms"},
	{"trace_overhead.alloc_bytes", "bytes"},
	{"trace_overhead.allocs", "count"},
	{"trace_overhead.peak_heap_mb", "MB"},
}

// benches maps each workload name to its constructor.
var benches = map[string]func(cfg config) bench{
	"table3":     newTable3,
	"interleave": newInterleave,
	"fuzz":       func(cfg config) bench { return &fuzzBench{cfg: cfg} },
	"daemon":     func(cfg config) bench { return &daemonBench{cfg: cfg} },
}

func newBench(cfg config) bench { return benches[cfg.workload](cfg) }

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "table3, interleave, fuzz or daemon")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed builds the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "file a traced run writes its spans to")
	record := flag.String("record", "", "write the table3/interleave outcome references to this file and exit")
	flag.Parse()
	cfg.trace = trace == 1
	if *record != "" {
		if err := recordReferences(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if _, ok := benches[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	report, _ := json.Marshal(res.report)
	fmt.Println(string(report))
	line, _ := json.Marshal(res.line)
	fmt.Println(string(line))
	if !res.line.Correct {
		os.Exit(1)
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the line before it: what a reader needs to compare two runs.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	Tiny       bool               `json:"tiny,omitempty"`
	GoMaxProcs int                `json:"gomaxprocs"`
	NumCPU     int                `json:"nproc"`
	GoVersion  string             `json:"go_version"`
	GitSHA     string             `json:"git_sha"`
	SourceHash string             `json:"source_sha256"`
	ErrorRate  float64            `json:"error_rate"`
	Samples    map[string]int     `json:"samples"`
	Raw        map[string]float64 `json:"raw"`
	Untraced   map[string]float64 `json:"untraced,omitempty"`
	TracedE2E  map[string]float64 `json:"traced_end_to_end,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	Failures   []string           `json:"failures,omitempty"`
}

type result struct {
	report report
	line   resultLine
}

// execute runs one workload and assembles its output.
func execute(cfg config) (*result, error) {
	res := &result{report: report{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Traced:     cfg.trace,
		Tiny:       cfg.tiny,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		SourceHash: sourceHash(),
	}}
	metrics := map[string]value{}
	var runs []*run
	if !cfg.trace {
		m, err := measure(cfg, false, cfg.seconds)
		if err != nil {
			return nil, err
		}
		e2e, samples, raw := m.endToEnd()
		for _, d := range endToEndMetrics {
			metrics[d.name] = value{e2e[d.name], d.unit}
		}
		res.report.Samples, res.report.Raw = samples, raw
		runs = append(runs, m.r)
	} else {
		// End-to-end numbers come from the untraced half; the traced half
		// gives the per-layer split, and the difference is the overhead.
		plain, err := measure(cfg, false, cfg.seconds/2)
		if err != nil {
			return nil, err
		}
		traced, err := measure(cfg, true, cfg.seconds/2)
		if err != nil {
			return nil, err
		}
		u, samples, raw := plain.endToEnd()
		t, _, _ := traced.endToEnd()
		res.report.Samples, res.report.Raw = samples, raw
		res.report.Untraced, res.report.TracedE2E = u, t
		layer := map[string]float64{}
		for _, d := range endToEndMetrics {
			layer["trace_overhead."+d.name] = t[d.name] - u[d.name]
		}
		addCommonLayers(traced, layer)
		traced.b.layers(traced.r, layer)
		// Latency splits are end-to-end in nature: keep them untraced.
		if db, ok := plain.b.(*daemonBench); ok {
			db.latencySplit(layer)
		}
		var missing []string
		for _, d := range layerMetrics {
			v, ok := layer[d.name]
			if !ok {
				missing = append(missing, d.name)
			}
			metrics[d.name] = value{v, d.unit}
		}
		if len(missing) > 0 {
			traced.r.note("not exercised by %s, reported as 0: %s", cfg.workload, strings.Join(missing, ", "))
		}
		if cfg.spans != "" {
			if err := traced.r.tr.write(cfg.spans); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
		runs = append(runs, plain.r, traced.r)
	}
	line := resultLine{Metrics: metrics}
	for _, r := range runs {
		line.Attempted += r.attempted
		line.Failed += r.failed
		res.report.Notes = append(res.report.Notes, r.notes...)
		res.report.Failures = append(res.report.Failures, r.failures...)
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	if line.Attempted > 0 {
		res.report.ErrorRate = float64(line.Failed) / float64(line.Attempted)
	}
	res.line = line
	return res, nil
}

// addCommonLayers adds the runtime counters and the self-time split that
// every traced workload reports.
func addCommonLayers(m *measurement, out map[string]float64) {
	passes := float64(len(m.passes))
	out["gc.cycles"] = m.gcCycles / passes
	out["gc.pause_ms"] = m.gcPause * 1e3 / passes
	self := m.r.tr.selfByLayer("setup", "bench.pass")
	var total float64
	for _, d := range self {
		total += d.Seconds()
	}
	for _, d := range layerMetrics {
		if layer, ok := strings.CutPrefix(d.name, "self_share."); ok && total > 0 {
			out[d.name] = self[layer].Seconds() / total
		}
	}
	var split []string
	for layer, d := range self {
		split = append(split, fmt.Sprintf("%s=%.4fs", layer, d.Seconds()))
	}
	sort.Strings(split)
	m.r.note("self time by layer over set-up and passes: %s", strings.Join(split, " "))
}

// gitSHA is the commit of the git work tree rooted at the working
// directory, or "unknown" when there is none (the source hash identifies
// the code there).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, werr := os.Getwd()
	if err != nil || werr != nil {
		return "unknown"
	}
	lines := strings.Fields(string(out))
	if len(lines) != 2 || filepath.Clean(lines[0]) != filepath.Clean(wd) {
		return "unknown"
	}
	return lines[1]
}

// sourceHash digests every Go source and module file under the working
// directory, so runs of one tree can be matched without git.
func sourceHash() string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}
