// Command wavebench is the repository's benchmark: one run drives one
// workload through the public functions of internal/serve, internal/wdm,
// internal/route, internal/load and internal/core, checks that every
// output is correct, and prints its metrics by name and unit.
//
//	bash wavebench/run.sh --workload churn-giant --seed 1 --seconds 10 --trace 0
//	bash wavebench/run.sh --workload all --seed 1 --seconds 10
//	bash wavebench/run.sh --compare old.jsonl new.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the gated end-to-end metrics
// of metricTable with --trace 0, every per-layer metric with --trace 1.
// The line before it is the full record: host block, every named
// metric of the workload and the sample count behind each timing. A
// failed correctness check prints the violations to standard error, no
// numbers, and exits 1. See README.md for why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		traceOut = flag.String("trace-out", ".bench_build/wavebench-trace", "directory the traced run writes its spans to")
		compare  = flag.Bool("compare", false, "compare two record files given as arguments: old new")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "wavebench: -compare needs two record files: old new")
			return 2
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "wavebench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "wavebench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	var names []string
	if *workload == "all" {
		names = workloadNames()
	} else if _, ok := workloads[*workload]; ok {
		names = []string{*workload}
	} else {
		fmt.Fprintf(os.Stderr, "wavebench: unknown workload %q (want one of %s, or all)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	host := probeHost(*seed)
	status := 0
	for _, name := range names {
		cfg := runConfig{
			seed:     *seed,
			measure:  time.Duration(*seconds) * time.Second,
			traced:   *trace == 1,
			traceDir: *traceOut,
		}
		rec, err := workloads[name](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wavebench: %s: %v\n", name, err)
			return 1
		}
		if len(rec.Violations) > 0 {
			for _, v := range rec.Violations {
				fmt.Fprintf(os.Stderr, "wavebench: %s: correctness violation: %s\n", name, v)
			}
			status = 1
			continue
		}
		for _, m := range metricTable {
			if _, ok := rec.Metrics[m.Name]; m.Gated && !ok {
				fmt.Fprintf(os.Stderr, "wavebench: %s: gated metric %s not measured\n", name, m.Name)
				return 1
			}
		}
		rec.Bench, rec.Workload, rec.Seconds, rec.Trace, rec.Host = "wavebench", name, *seconds, cfg.traced, host
		line, err := json.Marshal(rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wavebench:", err)
			return 1
		}
		fmt.Println(string(line))
		last, err := json.Marshal(rec.contract())
		if err != nil {
			fmt.Fprintln(os.Stderr, "wavebench:", err)
			return 1
		}
		fmt.Println(string(last))
	}
	return status
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed     int64
	measure  time.Duration
	traced   bool
	traceDir string
}

// phases splits the measured time: an untraced run measures it all; a
// traced run measures its first half untraced and its second half with
// spans on, so the two halves give the tracing overhead.
func (c runConfig) phases() (untraced, traced time.Duration) {
	if !c.traced {
		return c.measure, 0
	}
	return c.measure / 2, c.measure - c.measure/2
}

// workloads maps each workload to its run; README.md says why each
// exists.
var workloads = map[string]func(runConfig) (*record, error){
	"serve-poisson": runServe,
	"churn-giant":   runChurn,
	"plan-theorem1": runPlan,
}

// A run sets its workload up at least setupRepeats times and for at
// least setupBudget, and reports the median as setup_s: one set-up of a
// few milliseconds is too short to time steadily.
const (
	setupRepeats = 5
	setupBudget  = 500 * time.Millisecond
)

// setupMedian builds instances until both limits are met, discards all
// but the last and returns it with the median build time in seconds.
func setupMedian[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var (
		last T
		s    sample
	)
	start := time.Now()
	for s.n() < setupRepeats || time.Since(start) < setupBudget {
		if s.n() > 0 && discard != nil {
			discard(last)
		}
		t := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		s.addDur(time.Since(t))
		last = v
	}
	return last, s.q(0.5) / 1e9, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ── Metrics ───────────────────────────────────────────────────────────

// metricDef is one named metric. Gated metrics are the end-to-end
// metrics of BENCHMARK.json: every workload reports them, each in its
// own form (see README.md), and a later change may not worsen one by
// more than its bound. The others are the workload-specific end-to-end
// metrics: printed in the record and judged by compare mode with the
// same rule.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool    // larger is better
	Bound  float64 // share of the parent's median it may worsen by
	Gated  bool
}

var metricTable = []metricDef{
	{"setup_s", "s", false, 0.25, true},
	{"op_p50_us", "us", false, 0.25, true},
	// Not gated: a tail on a shared host follows the neighbours more
	// than the program (see README.md).
	{"op_tail_us", "us", false, 0.25, false},
	{"ops_per_s", "1/s", true, 0.25, true},
	{"ok_ratio", "ratio", true, 0.01, true},
	{"lambda_over_pi", "ratio", false, 0.1, true},

	// Not gated: serve-poisson's live heap is about 1 MiB and moves by
	// a third from run to run.
	{"heap_mib", "MiB", false, 0.25, false},

	{"ack_p50_us", "us", false, 0.25, false},
	{"ack_p99_us", "us", false, 0.25, false},
	{"error_ratio", "ratio", false, 0.01, false},
	{"reads_per_s", "1/s", true, 0.25, false},
	{"events_per_s", "1/s", true, 0.25, false},
	{"batch_p50_us", "us", false, 0.25, false},
	{"batch_p99_us", "us", false, 0.25, false},
	{"block_ratio", "ratio", false, 0.15, false},
	{"storm_p50_us", "us", false, 0.25, false},
	{"restored_ratio", "ratio", true, 0.15, false},
	{"plan_p50_ms", "ms", false, 0.25, false},
	{"plan_p90_ms", "ms", false, 0.25, false},
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range metricTable {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// layerTable lists the per-layer metrics of the traced run with their
// units. A workload whose path does not cross a layer reports 0 for it.
var layerTable = []struct{ Name, Unit string }{
	{"serve.submit_ns_p50", "ns"},
	{"serve.ops_per_batch", "count"},
	{"serve.batches_per_s", "1/s"},
	{"serve.queue_depth_p99", "count"},
	{"serve.shed", "count"},
	{"serve.expired", "count"},
	{"serve.retried", "count"},
	{"snapshot.stats_ns_p50", "ns"},
	{"snapshot.stats_ns_p99", "ns"},
	{"snapshot.pi_ns_p50", "ns"},
	{"snapshot.pi_ns_p99", "ns"},
	{"snapshot.arcloads_ns_p50", "ns"},
	{"snapshot.arcloads_ns_p99", "ns"},
	{"snapshot.path_ns_p50", "ns"},
	{"snapshot.path_ns_p99", "ns"},
	{"snapshot.publishes_per_batch", "count"},
	{"engine.ns_per_op", "ns"},
	{"engine.self_ns_per_op", "ns"},
	{"engine.overlay_share", "ratio"},
	{"engine.region_lanes", "count"},
	{"engine.overlay_lambda", "count"},
	{"admission.region_reject_ratio", "ratio"},
	{"admission.overlay_reject_ratio", "ratio"},
	{"admission.check_ns_p50", "ns"},
	{"route.minload_ns_p50", "ns"},
	{"route.minload_ns_p99", "ns"},
	{"route.batch_ms_p50", "ms"},
	{"coloring.add_ns_p50", "ns"},
	{"coloring.remove_ns_p50", "ns"},
	{"coloring.warm_recolors", "count"},
	{"coloring.cold_recolors", "count"},
	{"theorem1.assign_ms_p50", "ms"},
	{"survive.affected_per_cut", "count"},
	{"survive.retries_per_cut", "count"},
	{"survive.parked", "count"},
	{"survive.revived", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"bench.gen_lag_p99_us", "us"},
	{"bench.trace_overhead_pct", "%"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sampleNote records how many samples a timing rests on and which
// percentile that count supports as its tail.
type sampleNote struct {
	N    int     `json:"n"`
	Tail float64 `json:"tail"`
}

// record is everything one run of one workload measured.
type record struct {
	Bench      string                `json:"bench"`
	Workload   string                `json:"workload"`
	Seconds    int                   `json:"seconds"`
	Trace      bool                  `json:"trace"`
	Host       hostInfo              `json:"host"`
	Attempted  int64                 `json:"attempted"`
	Failed     int64                 `json:"failed"`
	Violations []string              `json:"violations,omitempty"`
	Metrics    map[string]value      `json:"metrics"`
	Layers     map[string]value      `json:"layers,omitempty"`
	Samples    map[string]sampleNote `json:"samples"`
}

func newRecord() *record {
	return &record{Metrics: map[string]value{}, Samples: map[string]sampleNote{}}
}

// set stores a named end-to-end metric with its table unit.
func (r *record) set(name string, v float64) {
	m, ok := metricByName(name)
	if !ok {
		panic("wavebench: metric not in metricTable: " + name)
	}
	r.Metrics[name] = value{v, m.Unit}
}

// layer stores a per-layer metric with its table unit.
func (r *record) layer(name string, v float64) {
	for _, l := range layerTable {
		if l.Name == name {
			if r.Layers == nil {
				r.Layers = map[string]value{}
			}
			r.Layers[name] = value{v, l.Unit}
			return
		}
	}
	panic("wavebench: metric not in layerTable: " + name)
}

func (r *record) note(name string, s *sample) {
	r.Samples[name] = sampleNote{N: s.n(), Tail: tailQuantile(s.n())}
}

// violate records a failed correctness check; the run then prints no
// numbers.
func (r *record) violate(format string, args ...any) {
	if len(r.Violations) < 20 {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// contract is the last line of a run's output.
func (r *record) contract() map[string]any {
	metrics := map[string]value{}
	if r.Trace {
		for _, l := range layerTable {
			v, ok := r.Layers[l.Name]
			if !ok {
				v = value{0, l.Unit}
			}
			metrics[l.Name] = v
		}
	} else {
		for _, m := range metricTable {
			if m.Gated {
				metrics[m.Name] = r.Metrics[m.Name]
			}
		}
	}
	return map[string]any{
		"correct":   len(r.Violations) == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}
