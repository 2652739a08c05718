// Command perfbench is the repository benchmark. It drives the nexus library
// through four seeded workloads, checks every output, and prints its metrics
// by name and unit, ending with one JSON line:
//
//	go run . --workload small-tcp --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) records spans around every public call the benchmark makes into
// the library and reports the per-layer metrics. README.md lists both sets
// and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one seeded input set. measure produces the end-to-end metrics;
// profile runs the same path with tracing and produces per-layer metrics
// (full) or a short version of it (mini) that fills in layers the traced
// workload does not reach.
type workload struct {
	name    string
	measure func(e *env) (*result, error)
	profile func(e *env, full bool) (*result, error)
}

var workloads = []workload{
	{"small-tcp", measureSmallTCP, profileSmallTCP},
	{"rpc-shm", measureRPCShm, profileRPCShm},
	{"bulk-rudp", measureBulkRUDP, profileBulkRUDP},
	{"gossip-churn", measureGossip, profileGossip},
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd is what an untraced run reports in its JSON line, in this order.
var endToEnd = []metricSpec{
	{"op_p50_us", "us"},
	{"ops_per_s", "1/s"},
	{"goodput_mbps", "MB/s"},
	{"allocs_per_op", "count"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// printedOnly are end-to-end figures an untraced run prints but leaves out
// of its JSON line: across runs on a shared 2-vCPU box their spread exceeds
// any bound a regression check could use (see README.md).
var printedOnly = []metricSpec{
	{"op_p99_us", "us"},
}

// perLayer is what a traced run reports in its JSON line, in this order.
var perLayer = []metricSpec{
	{"core.rsr_us", "us"},
	{"core.poll_hit_us", "us"},
	{"core.poll_hit_self_us", "us"},
	{"core.idle_polls_per_op", "count"},
	{"core.idle_poll_ns", "ns"},
	{"core.method_polls_per_op.local", "count"},
	{"core.method_polls_per_op.tcp", "count"},
	{"core.method_polls_per_op.shm", "count"},
	{"core.method_polls_per_op.rudp", "count"},
	{"core.method_polls_per_op.mpl", "count"},
	{"core.remainder_us", "us"},
	{"core.allocs_remainder_per_op", "count"},
	{"core.goroutines_leaked", "count"},
	{"tcp.floor_rtt_us", "us"},
	{"tcp.floor_allocs_per_rt", "count"},
	{"tcp.send_us", "us"},
	{"tcp.poll_hit_us", "us"},
	{"shm.floor_rtt_us", "us"},
	{"shm.floor_allocs_per_rt", "count"},
	{"shm.leaked_segments", "count"},
	{"rudp.floor_mbps", "MB/s"},
	{"frag.fragments_per_op", "count"},
	{"frag.assembled_ratio", "ratio"},
	{"frag.wasted_per_op", "count"},
	{"frag.add_us", "us"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"rpc.call_us", "us"},
	{"rpc.await_us", "us"},
	{"rpc.reply_us", "us"},
	{"rpc.over_rsr_ratio", "ratio"},
	{"obsv.stage_mean_us.send", "us"},
	{"obsv.stage_mean_us.poll", "us"},
	{"obsv.stage_mean_us.handler", "us"},
	{"obsv.stage_mean_us.rpc_call", "us"},
	{"obsv.stage_mean_us.rpc_serve", "us"},
	{"obsv.stats_cost_ratio", "ratio"},
	{"names.digest_us", "us"},
	{"names.snapshot_us", "us"},
	{"names.merges_per_round", "count"},
	{"cluster.step_us_per_node", "us"},
	{"cluster.drain_ms_per_round", "ms"},
	{"cluster.msgs_per_round", "count"},
	{"cluster.rounds.join", "count"},
	{"cluster.rounds.churn", "count"},
	{"cluster.rounds.heal", "count"},
	{"cluster.phase_s.join", "s"},
	{"cluster.phase_s.churn", "s"},
	{"cluster.phase_s.heal", "s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// env is what every workload function receives: the run's flags, its seeded
// inputs, and where it may write.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	outDir   string // trace files and shm segments live under here
	shmDir   string
	in       *inputs
	tracers  []*tracer // every tracer a traced run used, written out at the end
}

// result is one run's (or one phase's) outcome.
type result struct {
	attempted int
	failed    int
	values    map[string]float64
	notes     []string // human-readable lines printed before the JSON
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// absorb adds another phase's counts and notes, and copies its metrics where
// r has none of that name yet.
func (r *result) absorb(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.notes = append(r.notes, o.notes...)
	for k, v := range o.values {
		if _, ok := r.values[k]; !ok {
			r.values[k] = v
		}
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: small-tcp, rpc-shm, bulk-rudp or gossip-churn")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer profile, 0 the end-to-end measurement")
		outDir  = flag.String("out", ".bench_build", "directory for trace files and shm segments")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	e := &env{
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		outDir:   *outDir,
		shmDir:   filepath.Join(*outDir, "shm", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())),
		in:       newInputs(*seed),
	}
	if err := os.MkdirAll(e.shmDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.shmDir)

	var res *result
	var err error
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
		res, err = profileRun(e, w)
	} else {
		res, err = w.measure(e)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]map[string]any{}}
	for _, s := range specs {
		v, ok := res.values[s.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", w.name, s.name)
			return 1
		}
		fmt.Printf("%-34s %16.6f %s\n", s.name, v, s.unit)
		out.Metrics[s.name] = map[string]any{"value": v, "unit": s.unit}
	}
	if *trace == 0 {
		for _, s := range printedOnly {
			fmt.Printf("%-34s %16.6f %s\n", s.name, res.values[s.name], s.unit)
		}
	}
	fmt.Printf("%-34s %16.6f ratio (%d of %d ops failed)\n", "failed_frac", float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct || res.attempted < 1 {
		return 1
	}
	return 0
}

// profileRun is the traced run: the named workload's path at full length
// (with its module floor), short traced runs of the other workloads for
// layers the named one does not reach, then the microloops, and finally the
// leak counts once everything is closed. The span log is written out at the
// end.
func profileRun(e *env, w *workload) (*result, error) {
	baseGoroutines := runtime.NumGoroutine()
	res, err := w.profile(e, true)
	if err != nil {
		return nil, err
	}
	for i := range workloads {
		v := &workloads[i]
		if v == w {
			continue
		}
		mini, err := v.profile(e, false)
		if err != nil {
			return nil, fmt.Errorf("mini %s: %w", v.name, err)
		}
		res.absorb(mini)
	}
	suite, err := layerSuite(e)
	if err != nil {
		return nil, err
	}
	res.absorb(suite)
	res.set("core.goroutines_leaked", float64(goroutinesAbove(baseGoroutines)))
	res.set("shm.leaked_segments", float64(countFiles(e.shmDir)))
	path, err := writeTraces(e)
	if err != nil {
		return nil, err
	}
	res.note("spans written to %s", path)
	return res, nil
}

// goroutinesAbove waits briefly for goroutines that closed contexts are
// still retiring, then reports how many remain above base.
func goroutinesAbove(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-base, 0)
}

// countFiles counts regular files and FIFOs left under dir.
func countFiles(dir string) int {
	n := 0
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return nil
	})
	return n
}
