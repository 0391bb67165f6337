// Command perfbench is the repository's benchmark. It runs one
// workload of the asynchronous master-slave Borg MOEA through the
// module's public entry points for a fixed time, checks every output,
// and prints the end-to-end metrics, or, with -trace 1, the per-layer
// metrics, as the last line of its output:
//
//	go run . -workload serial-dtlz2 -seed 1 -seconds 25 -trace 0
//
// run.sh builds it from the checkout and runs it from the repository
// root. README.md lists the workloads and what each metric means.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"
)

var workloads = []workload{
	{
		name:       "serial-dtlz2",
		problem:    "DTLZ2_5",
		why:        "serial Borg on DTLZ2-5 at the paper's N = 100k: the single-threaded baseline T_S, where core's population scan dominates",
		evals:      serialEvals,
		probes:     2000,
		probeEvals: 1,
		turnCap:    serialEvals,
		rep:        serialRep,
		tol:        tolerance{minHV: 0.85, maxIGD: 0.15},
	},
	{
		name:       "des-uf11-p1024",
		problem:    "UF11",
		why:        "RunAsync on the virtual cluster, UF11, P = 1024, constant T_A: the paper's most saturated Table II cell, restart-heavy",
		evals:      desEvals,
		probes:     10,
		probeEvals: 1,
		turnCap:    desEvals + desProcessors, // evaluations still in flight at the end draw T_F too
		rep:        desRep,
		tol:        tolerance{minHV: 0.25, maxIGD: 0.45},
	},
	{
		name:       "tcp-dtlz2-2w",
		problem:    "DTLZ2_5",
		why:        "RunAsyncDistributed on loopback with 2 in-process workers and T_F = 0: the real-transport ceiling 1/(2·T_C+T_A)",
		evals:      tcpEvals,
		probes:     10,
		probeEvals: 1000,
		turnCap:    tcpWorkers * tcpEvals,
		rep:        tcpRep,
		tol:        tolerance{minHV: 0.5, maxIGD: 0.45},
	},
	{
		name:       "sim-table2",
		problem:    "DTLZ2_5",
		why:        "model.Simulate over the Table II grid (T_F 1/10/100 ms, P 16..1024): the des engine and stats sampling, no search",
		evals:      simEvals,
		probes:     1,
		probeEvals: 1,
		turnCap:    simTurnCap,
		rep:        simRep,
		tol:        tolerance{minHV: 0.85, maxIGD: 0.15},
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 25, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure repeats the workload until the time is up, checks each
// repetition and aggregates the metrics. Traced, it alternates plain
// and traced repetitions, so that the tracing overhead is measured in
// the same process, and profiles the traced ones.
func measure(w *workload, seed uint64, budget time.Duration, traced bool, out io.Writer) (*result, error) {
	printEnv(out, w, seed)
	in := &inputs{seed: seed, turn: gapRecorder{gaps: make([]uint32, 0, w.turnCap)}}
	start := time.Now()
	var reps []*rep
	cpuNs, spanNs := map[string]int64{}, map[string]int64{}
	var tracedEvals uint64
	qualities := map[[32]byte]quality{}
	for {
		repStart := time.Now()
		tracedRep := traced && len(reps)%2 == 1
		var prof bytes.Buffer
		if tracedRep {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		// Each repetition starts from a collected heap, so that its
		// live-heap peak and its collections are its own.
		runtime.GC()
		r, err := w.rep(in, tracedRep, w.evals)
		if tracedRep {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return nil, err
		}
		if tracedRep {
			byLayer, bySpan, err := cpuByLayer(prof.Bytes())
			if err != nil {
				return nil, err
			}
			for l, ns := range byLayer {
				cpuNs[l] += ns
			}
			for sp, ns := range bySpan {
				spanNs[sp] += ns
			}
			tracedEvals += r.evals
		}
		if _, ok := qualities[r.digest]; !ok {
			qualities[r.digest] = frontQuality(w.problem, r.front)
		}
		if err := w.tol.check(qualities[r.digest]); err != nil {
			r.failf("%v", err)
		}
		reps = append(reps, r)
		printRep(out, len(reps), r, qualities[r.digest])

		// Two repetitions at least: one to compare the other with, and
		// in a traced run one of each kind.
		enough := len(reps) >= 2
		elapsed, last := time.Since(start), time.Since(repStart)
		if enough && elapsed+last > budget {
			break
		}
	}

	// The extra set-ups run after the repetitions, on a grown heap.
	// Timed first, in a fresh process, the serial set-up's median
	// spread about three times as widely from run to run.
	var extraSetups []float64
	for i := 0; i < w.probes && !traced; i++ {
		// A probe's own checks are moot: it is cut short.
		r, err := w.rep(in, false, w.probeEvals)
		if err != nil {
			return nil, err
		}
		extraSetups = append(extraSetups, r.setup...)
	}

	// Same seed, same program: the archive must repeat byte for byte,
	// wrapped or not, wherever arrival order is deterministic.
	if w.name != "tcp-dtlz2-2w" {
		for _, r := range reps[1:] {
			if r.digest != reps[0].digest {
				r.failf("final archive differs from the first repetition's (traced=%v)", r.traced)
			}
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var plain, instrumented []*rep
	for _, r := range reps {
		res.Attempted += r.evals
		if len(r.failures) > 0 {
			res.Correct = false
			res.Failed += r.evals
		} else {
			res.Failed += r.wasted
		}
		if r.traced {
			instrumented = append(instrumented, r)
		} else {
			plain = append(plain, r)
		}
	}
	for i, r := range reps {
		for _, f := range r.failures {
			fmt.Fprintf(out, "FAIL rep %d: %s\n", i+1, f)
		}
	}

	if traced {
		layer := perLayer(instrumented, plain, cpuNs, spanNs, tracedEvals)
		printLayers(out, cpuNs, spanNs, tracedEvals)
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
		}
	} else {
		e2e := endToEnd(plain, qualities, extraSetups)
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	if !res.Correct {
		fmt.Fprintln(out, "correctness checks FAILED")
	}
	return res, nil
}

type metricDef struct{ name, unit, better string }

// endToEndMetrics are what a user of the system sees; BENCHMARK.json
// lists the same names, units and directions.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"evals_per_s", "1/s", "higher"},
	{"hypervolume", "ratio", "higher"},
	{"igd", "distance", "lower"},
	{"eval_turnaround_p50_us", "us", "lower"},
	{"alloc_bytes_per_eval", "B", "lower"},
	{"max_heap_live_mb", "MB", "lower"},
}

func endToEnd(reps []*rep, qualities map[[32]byte]quality, extraSetups []float64) map[string]float64 {
	setups := slices.Clone(extraSetups)
	var hv, igd, p50, alloc, live []float64
	for _, r := range reps {
		setups = append(setups, r.setup...)
		q := qualities[r.digest]
		hv = append(hv, q.hv)
		igd = append(igd, q.igd)
		p50 = append(p50, r.turnP50)
		alloc = append(alloc, float64(r.alloc)/float64(r.evals))
		live = append(live, float64(r.heapLive)/(1<<20))
	}
	return map[string]float64{
		"setup_s":                median(setups),
		"evals_per_s":            evalsPerSecond(reps),
		"hypervolume":            median(hv),
		"igd":                    median(igd),
		"eval_turnaround_p50_us": median(p50),
		"alloc_bytes_per_eval":   median(alloc),
		"max_heap_live_mb":       median(live),
	}
}

// evalsPerSecond is a repetition's evaluations over its time, taking
// for each segment its median over the repetitions. A burst of outside
// load then has to hit the same segment in most repetitions to count.
func evalsPerSecond(reps []*rep) float64 {
	segments := func(r *rep) []float64 {
		if r.segments != nil {
			return r.segments
		}
		return []float64{r.wall}
	}
	var total float64
	for i := range segments(reps[0]) {
		var ts []float64
		for _, r := range reps {
			ts = append(ts, segments(r)[i])
		}
		total += median(ts)
	}
	return float64(reps[0].evals) / total
}

// perLayerMetrics are the traced run's metrics; a layer a workload
// does not exercise reports 0.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"core.suggest.offspring.ns", "ns", "lower"},
		{"core.suggest.offspring.calls", "count", "lower"},
		{"core.suggest.injection.ns", "ns", "lower"},
		{"core.suggest.injection.calls", "count", "lower"},
		{"core.accept.ns", "ns", "lower"},
		{"core.accept.calls", "count", "lower"},
		{"core.population.size_mean", "count", "lower"},
		{"core.archive.size_mean", "count", "higher"},
		{"core.pending.depth_mean", "count", "lower"},
		{"core.restarts", "count", "lower"},
		{"core.tournament_size_mean", "count", "lower"},
		{"core.archive.improvements_per_eval", "ratio", "higher"},
		{"problems.evaluate.ns", "ns", "lower"},
		{"problems.evaluate.calls", "count", "lower"},
	}
	for _, op := range operatorKeys {
		defs = append(defs,
			metricDef{"operators." + op + ".ns", "ns", "lower"},
			metricDef{"operators." + op + ".calls", "count", "lower"})
	}
	defs = append(defs,
		metricDef{"wire.bytes_per_eval", "B", "lower"},
		metricDef{"wire.writes_per_eval", "count", "lower"},
		metricDef{"wire.reads_per_eval", "count", "lower"},
		metricDef{"wire.write.ns", "ns", "lower"},
		metricDef{"wire.read_wait.ns", "ns", "lower"},
		metricDef{"parallel.master_utilization", "ratio", "higher"},
		metricDef{"parallel.worker_utilization", "ratio", "higher"},
		metricDef{"model.simulate.ns_per_eval.saturated", "ns", "lower"},
		metricDef{"model.simulate.ns_per_eval.unsaturated", "ns", "lower"},
		metricDef{"model.evaluations_overshoot", "count", "lower"},
		metricDef{"model.master_utilization_max", "ratio", "lower"},
		metricDef{"eval_turnaround_p99_us", "us", "lower"},
		metricDef{"eval_turnaround.samples", "count", "higher"},
		metricDef{"max_rss_mb", "MB", "lower"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_ns_per_eval", "ns", "lower"})
	}
	for _, sp := range coreSpans {
		defs = append(defs, metricDef{sp.name + ".cpu_ns_per_eval", "ns", "lower"})
	}
	return append(defs, metricDef{"tracing_overhead", "ratio", "lower"})
}()

func perLayer(traced, plain []*rep, cpuNs, spanNs map[string]int64, tracedEvals uint64) map[string]float64 {
	out := map[string]float64{}
	keys := map[string]bool{}
	for _, r := range traced {
		for k := range r.layer {
			keys[k] = true
		}
	}
	for k := range keys {
		var vs []float64
		for _, r := range traced {
			vs = append(vs, r.layer[k])
		}
		out[k] = median(vs)
	}
	var turnN float64
	var p99 []float64
	for _, r := range plain {
		turnN += float64(r.turnN)
		p99 = append(p99, r.turnP99)
	}
	out["eval_turnaround.samples"] = turnN
	out["eval_turnaround_p99_us"] = median(p99)
	out["max_rss_mb"] = maxRSSMB()
	for _, l := range layers {
		out[l+".cpu_ns_per_eval"] = float64(cpuNs[l]) / float64(tracedEvals)
	}
	for _, sp := range coreSpans {
		out[sp.name+".cpu_ns_per_eval"] = float64(spanNs[sp.name]) / float64(tracedEvals)
	}
	out["tracing_overhead"] = 1 - evalsPerSecond(traced)/evalsPerSecond(plain)
	return out
}

// maxRSSMB returns the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func printRep(out io.Writer, i int, r *rep, q quality) {
	kind := "plain"
	if r.traced {
		kind = "traced"
	}
	fmt.Fprintf(out, "rep %d %s: %d evals in %.3f s (%.0f evals/s), setup %.6f s, turnaround p50 %.2f us p99 %.2f us (n=%d), alloc %.0f B/eval, hv %.4f igd %.4f, wasted %d, checks failed %d\n",
		i, kind, r.evals, r.wall, float64(r.evals)/r.wall, median(r.setup), r.turnP50, r.turnP99, r.turnN,
		float64(r.alloc)/float64(r.evals), q.hv, q.igd, r.wasted, len(r.failures))
}

// printLayers prints the CPU attribution table of the traced
// repetitions: the layers, which add up to the whole, then the core
// spans, each inclusive of what it calls.
func printLayers(out io.Writer, cpuNs, spanNs map[string]int64, evals uint64) {
	var total int64
	for _, ns := range cpuNs {
		total += ns
	}
	row := func(name string, ns int64, note string) {
		share := 0.0
		if total > 0 {
			share = 100 * float64(ns) / float64(total)
		}
		fmt.Fprintf(out, "%-20s %14.1f %6.1f%%%s\n", name, float64(ns)/float64(evals), share, note)
	}
	fmt.Fprintf(out, "%-20s %14s %7s\n", "layer", "cpu ns/eval", "share")
	for _, l := range layers {
		row(l, cpuNs[l], "")
	}
	for _, sp := range coreSpans {
		row(sp.name, spanNs[sp.name], " (inclusive)")
	}
}
