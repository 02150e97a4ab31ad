// Command refbench is the repository's reference benchmark. One run
// builds the reference configuration (50k-node CommunityOverlay graph,
// 8 shards, graph seed 1, k=10) inside this process, drives one workload
// against it from this same process, checks every answer, and prints one
// JSON result line:
//
//	bash refbench/run.sh --workload engine-topk --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 adds a traced
// phase and reports the per-layer metrics (see LAYERS.md). The workload
// seed drives only the query and update streams, never the graph.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"kdash/internal/graph"
	"kdash/internal/procmem"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) (*result, error){
	"engine-topk":      runEngineTopK,
	"http-read":        runHTTPRead,
	"http-mixed-wal":   runHTTPMixedWAL,
	"coordinator-topk": runCoordinatorTopK,
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median.
const setupRuns = 3

// bench is one run's settings.
type bench struct {
	cfg    refConfig
	seed   int64
	dur    time.Duration
	trace  bool
	setups int
	work   string       // scratch directory for saved indexes and logs
	g      *graph.Graph // the last generated graph, fingerprinted in the result
}

// graph generates the reference graph, as part of every timed set-up.
func (b *bench) graph() *graph.Graph {
	b.g = b.cfg.graph()
	return b.g
}

// phase is one measured load phase.
type phase struct {
	lat       []time.Duration // single top-k read latencies, closed loop
	queries   int             // answered queries; a batch counts its queries
	attempted int             // requests sent
	failed    int             // requests that failed on the wire or status
	wall      time.Duration
}

// answered records one successful read request.
func (p *phase) answered(d time.Duration, queries int) {
	p.lat = append(p.lat, d)
	p.queries += queries
}

// result is what one workload run measured.
type result struct {
	setup    []float64 // seconds per set-up
	measured phase     // untraced phase: every end-to-end metric
	traced   phase     // traced phase (--trace 1)
	rssMB    float64
	gate     gateResult
	info     map[string]float64
	layers   map[string]float64
	ledger   *ledger
	spans    []span
}

// repeatSetup runs setup b.setups times and times each up to its first
// answered query; all but the last are torn down again. A collection
// before each keeps one set-up's garbage out of the next one's time.
func (b *bench) repeatSetup(res *result, setup func() (func(), error)) error {
	var closePrev func()
	for i := 0; i < b.setups; i++ {
		if closePrev != nil {
			closePrev()
		}
		runtime.GC()
		t0 := time.Now()
		closer, err := setup()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		closePrev = closer
	}
	// Return the discarded set-ups' memory, so rss_mb reflects the one
	// being measured.
	debug.FreeOSMemory()
	return nil
}

// residentMB is the resident set after a forced collection: live data
// and runtime overhead, without garbage whose size depends on when the
// collector last ran.
func residentMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	return float64(procmem.Resident()) / (1 << 20)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the --trace 0 metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"rss_mb", "MB"},
}

// perLayer are the --trace 1 metrics and their units. A metric of a
// layer the workload does not use reads 0.
var perLayer = []struct{ name, unit string }{
	{"server.wire_us_p50", "us"},
	{"server.handler_self_us_p50", "us"},
	{"server.read_barrier_ms_per_update", "ms"},
	{"server.update_ack_us_p50", "us"},
	{"server.batches_per_compaction", "count"},
	{"shard.push_us_p50", "us"},
	{"shard.push_us_p99", "us"},
	{"shard.push_self_us_p50", "us"},
	{"shard.solves_per_query", "count"},
	{"shard.shards_solved_per_query", "count"},
	{"shard.shards_pruned_per_query", "count"},
	{"shard.nodes_evaluated_per_query", "count"},
	{"shard.batch_rhs_per_block_solve", "count"},
	{"shard.apply_ms_p50", "ms"},
	{"shard.shards_rebuilt_per_apply", "count"},
	{"lu.solve_us_p50", "us"},
	{"lu.solve_share", "ratio"},
	{"lu.support_per_solve", "count"},
	{"lu.rhs_nnz_per_solve", "count"},
	{"wal.fsyncs_per_update", "count"},
	{"wal.bytes_per_update", "B"},
	{"rpc.calls_per_query", "count"},
	{"rpc.bytes_per_query", "B"},
	{"rpc.call_us_p50", "us"},
	{"rpc.worker_handle_us_p50", "us"},
	{"placement.coordinator_self_us_p50", "us"},
	{"client.update_ack_ms_p50", "ms"},
	{"client.update_visible_ms_p50", "ms"},
	{"client.update_lateness_ms_max", "ms"},
	{"ledger.e2e_us_p50", "us"},
	{"ledger.layer_sum_us_p50", "us"},
	{"ledger.gap_pct", "%"},
	{"ledger.untraced_e2e_us_p50", "us"},
	{"ledger.tracing_overhead_pct", "%"},
}

// ledgerTolerancePct is how far the layer medians may sum from the
// end-to-end median before the traced run fails with the ledger open.
const ledgerTolerancePct = 10

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) endToEnd() map[string]float64 {
	lat := durationsMs(r.measured.lat)
	return map[string]float64{
		"setup_s":        median(r.setup),
		"throughput_qps": float64(r.measured.queries) / r.measured.wall.Seconds(),
		"latency_p50_ms": quantile(lat, 0.5),
		"latency_p90_ms": quantile(lat, 0.90),
		"rss_mb":         r.rssMB,
	}
}

func (r *result) perLayer() map[string]float64 {
	m := map[string]float64{}
	for k, v := range r.layers {
		m[k] = v
	}
	if r.ledger != nil {
		untraced := 1e3 * quantile(durationsMs(r.measured.lat), 0.5)
		m["ledger.e2e_us_p50"] = r.ledger.E2EUs
		m["ledger.layer_sum_us_p50"] = r.ledger.SumUs
		m["ledger.gap_pct"] = r.ledger.GapPct
		m["ledger.untraced_e2e_us_p50"] = untraced
		m["ledger.tracing_overhead_pct"] = 100 * (r.ledger.E2EUs - untraced) / untraced
	}
	return m
}

// provenance stamps a result with where and on what it ran.
type provenance struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Config     refConfig `json:"config"`
	GraphHash  string    `json:"graphHash"`
	CPU        string    `json:"cpu"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"goVersion"`
	Commit     string    `json:"commit"`
	Setups     int       `json:"setups"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark run and returns the exit code: 0 only when
// every request succeeded, every answer passed the exactness gate and,
// on a traced run, the ledger closed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("refbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: engine-topk, http-read, http-mixed-wal or coordinator-topk")
	seed := fs.Int64("seed", 1, "workload seed (query and update streams only)")
	seconds := fs.Float64("seconds", 10, "measured seconds per phase")
	trace := fs.Int("trace", 0, "1 adds the traced phase and reports per-layer metrics")
	nodes := fs.Int("nodes", 50000, "graph size (the reference is 50000; the smoke test uses a small graph)")
	out := fs.String("out", ".bench_build", "directory for span files and scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "refbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	b := &bench{
		cfg:    referenceConfig(*nodes),
		seed:   *seed,
		dur:    time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		setups: setupRuns,
	}
	if b.trace {
		// The traced run reports no set-up time, and splits its seconds
		// between an untraced and a traced phase, so it takes as long as
		// a measured run.
		b.setups = 1
		b.dur /= 2
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "refbench: %v\n", err)
			return 1
		}
		if work, err = os.MkdirTemp(*out, "work-"); err != nil {
			fmt.Fprintf(stderr, "refbench: %v\n", err)
			return 1
		}
	}
	defer os.RemoveAll(work)
	b.work = work

	res, err := runner(b)
	if err != nil {
		fmt.Fprintf(stderr, "refbench: %s: %v\n", *workload, err)
		return 1
	}

	prov := provenance{
		Workload: *workload, Seed: b.seed, Seconds: *seconds, Trace: b.trace, Config: b.cfg, GraphHash: graphHash(b.g),
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Setups: b.setups,
	}
	attempted := res.measured.attempted + res.traced.attempted
	failed := res.measured.failed + res.traced.failed + res.gate.Failed
	o := output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if b.trace {
		vals := res.perLayer()
		for _, m := range perLayer {
			o.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
		path := filepath.Join(*out, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, b.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintf(stderr, "refbench: %v\n", err)
			return 1
		}
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintf(stderr, "refbench: write spans: %v\n", err)
			return 1
		}
	} else {
		for name, v := range res.endToEnd() {
			o.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
		}
	}
	detail := map[string]any{
		"provenance": prov,
		"gate":       res.gate,
		"errorRate":  ratio(float64(failed), float64(attempted)),
		"samples":    len(res.measured.lat),
		"setupS":     res.setup,
		"info":       res.info,
		"ledger":     res.ledger,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(detail); err != nil {
		fmt.Fprintf(stderr, "refbench: %v\n", err)
		return 1
	}
	if res.ledger != nil && !(res.ledger.GapPct <= ledgerTolerancePct) {
		fmt.Fprintf(stderr, "refbench: ledger open: layer medians sum to %.1fus, end-to-end median %.1fus (%.1f%% > %d%%)\n",
			res.ledger.SumUs, res.ledger.E2EUs, res.ledger.GapPct, ledgerTolerancePct)
		return 1
	}
	if err := enc.Encode(o); err != nil {
		fmt.Fprintf(stderr, "refbench: %v\n", err)
		return 1
	}
	if !o.Correct {
		fmt.Fprintf(stderr, "refbench: %d of %d requests failed or answered wrong (gate: %+v)\n", failed, attempted, res.gate)
		return 1
	}
	return 0
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
