// Command perfbench is the repository benchmark. It runs one workload for
// a fixed time, checks that the program's outputs are correct, and prints
// every metric by name with its unit; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (run.sh builds the binary from the checkout and passes these on):
//
//	perfbench --workload oo7-replay|churn-durable|serve-durable --seed N --seconds S --trace 0|1 [--dir D]
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// tracing. With --trace 1 it alternates untraced and traced work, reports
// the per-layer metrics from the spans of the traced part, prints a
// self-time table, and writes the spans to a JSON-lines file under --dir.
// Nothing else is written: the durable workloads keep their stores in
// memory (see memfs.go).
// METRICS.md maps each layer metric to the end-to-end metric it moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_s", "1/s"},
	{"op_p50_us", "us"},
	{"alloc_bytes_per_op", "B"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics every workload reports with --trace 1. A layer
// the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"trace.decode_ns_per_event", "ns"},
	{"sim.step_self_ns_per_event", "ns"},
	{"sim.finish_ms", "ms"},
	{"gc.collections", "count"},
	{"gc.collect_us_p50", "us"},
	{"gc.collect_us_p99", "us"},
	{"gc.reclaimed_kb_per_collection", "KB"},
	{"gc.io_per_collection", "count"},
	{"gc.yield_frac", "frac"},
	{"gc.pinned_garbage_frac", "frac"},
	{"storage.app_io_per_op", "count"},
	{"storage.partitions", "count"},
	{"core.should_collect_ns", "ns"},
	{"core.after_collection_ns", "ns"},
	{"core.estimate_ns", "ns"},
	{"core.triggers", "count"},
	{"core.empty_trigger_frac", "frac"},
	{"core.saio_err_pp", "pp"},
	{"core.saga_err_pp", "pp"},
	{"disk.log_ns_per_record", "ns"},
	{"disk.commit_us_p50", "us"},
	{"disk.commit_us_p99", "us"},
	{"disk.fsyncs_per_commit", "count"},
	{"disk.wal_bytes_per_op", "B"},
	{"disk.page_bytes_per_op", "B"},
	{"disk.bytes_per_op", "B"},
	{"disk.checkpoints", "count"},
	{"disk.checkpoint_ms_p50", "ms"},
	{"disk.recovery_ms", "ms"},
	{"server.rtt_us_p50", "us"},
	{"server.rtt_us_p99", "us"},
	{"server.queue_us_p50", "us"},
	{"server.queue_us_p99", "us"},
	{"server.service_us_p50", "us"},
	{"server.service_us_p99", "us"},
	{"server.wire_us_p50", "us"},
	{"server.encode_ns", "ns"},
	{"server.decode_ns", "ns"},
	{"server.shed", "count"},
	{"server.expired", "count"},
	{"server.errors", "count"},
	{"server.session_outside_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.spans", "count"},
	{"bench.fail_frac", "frac"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings a workload runs with.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string // where a traced run writes its spans
	out     io.Writer
}

// outcome is what a workload measured: values by metric name, and the
// operations it attempted and saw fail. A correctness gate that trips is
// returned as an error instead.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
}

var workloads = map[string]func(options) (*outcome, error){
	"oo7-replay":    runOO7,
	"churn-durable": runChurn,
	"serve-durable": runServe,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "oo7-replay, churn-durable or serve-durable")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 10, "how long to measure")
		traced   = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		dir      = fs.String("dir", ".bench_build/run", "directory a traced run writes its span dump to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traced == 1, out: stdout,
		spans: filepath.Join(*dir, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))}
	if opts.trace {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return err
		}
	}
	o, err := wl(opts)
	rep := report{Correct: err == nil, Metrics: map[string]metric{}}
	if err != nil {
		fmt.Fprintln(stdout, "correctness check failed:", err)
	} else {
		rep.Attempted, rep.Failed = o.attempted, o.failed
		defs := endToEnd
		if opts.trace {
			defs = perLayer
		}
		for _, d := range defs {
			v, ok := o.values[d.name]
			if !ok && !opts.trace {
				return fmt.Errorf("workload %s did not measure %s", *workload, d.name)
			}
			rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	b, jerr := json.Marshal(rep)
	if jerr != nil {
		return jerr
	}
	fmt.Fprintln(stdout, string(b))
	if err != nil {
		return err
	}
	return nil
}

// heapStats reads the allocation counters after a full collection of the
// Go heap.
func heapStats() runtime.MemStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
