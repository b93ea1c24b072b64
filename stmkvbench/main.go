// Command stmkvbench is the repository's end-to-end benchmark: it runs
// one named workload against the real program, checks every output,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through its wrapper, which builds
// cmd/stmkv and this command from the checkout's source:
//
//	bash stmkvbench/run.sh --workload kv-pipelined-read --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	kv-pipelined-read  memory-only stmkv server, 2 connections in a
//	                   closed loop, each keeping 16 requests in flight;
//	                   80% GET, 10% SET, 5% MGET of 8 keys, 5% INCR,
//	                   zipf(0.99) over 20k preloaded 100-byte values.
//	                   Stresses the wire, RESP decode, dispatch and
//	                   reply flush; the engine and WAL do almost nothing.
//	kv-durable-write   stmkv with -data at the default flush policy,
//	                   2 connections in an open loop at a fixed rate
//	                   below capacity; 40% SET, 20% INCRBY, 20%
//	                   MULTI/EXEC transfers, 10% LPUSH/RPOP, 10% ZADD.
//	                   Latency is set by the WAL and the store's write
//	                   path; the server is killed and recovered at the
//	                   end. Stresses the WAL, not the wire.
//	stm-list           in-process, no server: the paper's IntSet list
//	                   (Figure 1) under greedy with 2 goroutines in a
//	                   closed loop. Stresses the engine and contention
//	                   manager; kv, resp and wal do no work.
//
// The kv workloads run the server on one CPU and this process on
// another (see cpuSplit).
//
// The repository's BENCHMARK.json gates kv-pipelined-read and stm-list.
// kv-durable-write is run by hand: its p99 is the shared disk's fsync
// tail, which moved by 40% to 60% of its median between runs of the
// same code on the reference box, wider than any regression bound. Its
// container and WAL layers are measured in-process, from its op stream,
// by every kv workload's --trace 1 run.
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the metrics are the per-layer ones: the
// run measures the workload untraced and then traced (reporting the
// tracing overhead as the difference), replays the op stream through
// a ladder of in-process layers, and derives layer self times from
// spans recorded around the calls into each layer. Spans are written
// to <workdir>/spans/. A correctness violation fails the run with a
// non-zero exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef is one reported metric: its name and unit, as listed in
// the repository's BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system would see.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_peak_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers. A layer a workload does
// not exercise reports zero.
var perLayer = []metricDef{
	{"server.write_syscalls_per_op", "count"},
	{"server.read_syscalls_per_op", "count"},
	{"server.ctx_switches_per_op", "count"},
	{"resp.decode_ns_per_cmd", "ns"},
	{"resp.encode_ns_per_reply", "ns"},
	{"kv.store_ns_per_op", "ns"},
	{"kv.dispatch_ns_per_op", "ns"},
	{"kv.tcp_ns_per_op", "ns"},
	{"kv.dispatch_self_ns_per_op", "ns"},
	{"wire.self_ns_per_op", "ns"},
	{"kv.store_allocs_per_op", "count"},
	{"kv.dispatch_allocs_per_op", "count"},
	{"container.deque_ns_per_op", "ns"},
	{"container.omap_ns_per_op", "ns"},
	{"container.table_ns_per_op", "ns"},
	{"stm.commits_per_attempt", "ratio"},
	{"stm.aborts_validation_per_commit", "ratio"},
	{"stm.aborts_enemy_per_commit", "ratio"},
	{"stm.aborts_cas_race_per_commit", "ratio"},
	{"stm.opens_per_commit", "count"},
	{"stm.backoff_ns_per_commit", "ns"},
	{"stm.engine_self_ns_per_commit", "ns"},
	{"core.wait_ns_per_commit", "ns"},
	{"core.conflicts_per_commit", "ratio"},
	{"core.enemy_aborts_per_commit", "ratio"},
	{"intset.body_ns_per_attempt", "ns"},
	{"wal.fsyncs_per_record", "ratio"},
	{"wal.records_per_batch", "count"},
	{"wal.ack_wait_us_p50", "us"},
	{"wal.ack_wait_us_p99", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.recover_s", "s"},
	{"loadgen.lateness_p99_us", "us"},
	{"loadgen.cpu_us_per_op", "us"},
	{"trace.overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	server   string // the stmkv binary
	workdir  string // working directory: data directories, spans
}

// window is how long the measured phase of the main loop lasts. With
// --trace 1 the untraced and traced phases get half each.
func (c *config) window() time.Duration {
	d := time.Duration(c.seconds) * time.Second
	if c.trace {
		d /= 2
	}
	return d
}

// warmup runs the load before each measured window, so connections,
// caches and the Go heap reach their steady state first.
const warmup = time.Second

// report collects one run's results.
type report struct {
	params     []string
	notes      []string
	values     map[string]float64
	attempted  int64
	failed     int64
	violations []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) param(k string, v any) { r.params = append(r.params, fmt.Sprintf("%s=%v", k, v)) }
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
func (r *report) set(name string, v float64) { r.values[name] = v }

// violate records a correctness violation: the run fails.
func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// workloads maps each name to its runner.
var workloads = map[string]func(*config, *report) error{
	"kv-pipelined-read": runPipelined,
	"kv-durable-write":  runDurable,
	"stm-list":          runSTMList,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: kv-pipelined-read, kv-durable-write or stm-list")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same op streams")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds of the main loop")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	flag.StringVar(&cfg.server, "server", "", "path of the stmkv binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for data directories and span files")
	flag.Parse()
	cfg.trace = *trace == 1
	run, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fatalf("unknown workload %q", cfg.workload)
	case *trace != 0 && *trace != 1:
		fatalf("--trace must be 0 or 1")
	case cfg.seconds < 2:
		fatalf("--seconds must be at least 2")
	case cfg.server == "" && cfg.workload != "stm-list":
		fatalf("--server is required for %s", cfg.workload)
	}
	var err error
	if cfg.workdir, err = filepath.Abs(cfg.workdir); err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatalf("%v", err)
	}
	rep := newReport()
	rep.param("workload", cfg.workload)
	rep.param("seed", cfg.seed)
	rep.param("seconds", cfg.seconds)
	rep.param("trace", *trace)
	if err := run(&cfg, rep); err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	os.Exit(rep.print(os.Stdout, cfg.trace))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stmkvbench: "+format+"\n", args...)
	os.Exit(2)
}

// print writes the human-readable report and the JSON result line and
// returns the exit code: 1 on any violation, or a metric missing.
func (r *report) print(w io.Writer, trace bool) int {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, p := range r.params {
		fmt.Fprintln(w, "param", p)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note ", n)
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			if !trace {
				r.violate("metric %s was not measured", d.name)
				continue
			}
			v = 0 // a layer this workload does not exercise
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.violate("metric %s is %v", d.name, v)
			continue
		}
		fmt.Fprintf(w, "metric %-34s %14.4f %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	fmt.Fprintf(w, "metric %-34s %14.6f ratio (%d failed of %d attempted)\n",
		"fail_ratio", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, v := range r.violations {
		fmt.Fprintln(w, "VIOLATION", v)
	}
	correct := len(r.violations) == 0
	attempted := max(r.attempted, 1)
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmkvbench:", err)
		return 2
	}
	fmt.Fprintln(w, string(line))
	if !correct {
		fmt.Fprintln(os.Stderr, "stmkvbench: correctness violations:", strings.Join(r.violations, "; "))
		return 1
	}
	return 0
}
