// Command perfbench is crocus's end-to-end benchmark. It drives the
// shipped verification pipeline from the outside, through the public
// functions of the isle, core, vcache and serve packages, on one of three
// seeded workloads, checks every verdict against a known answer, and
// prints the measured metrics.
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports the per-layer metrics of a separate traced
// run (see trace.go). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Human-readable
// detail goes to standard error. A verdict that differs from its known
// answer makes the command exit 1, after printing the result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// Pinned verification parameters, shared by every workload. The
// propagation budget is crocus-bench's; the wall-clock backstop is far
// above any unit's solve time, so only the budget decides a timeout.
const (
	budget   = 400_000
	backstop = 2 * time.Minute
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // scratch space for vcache stores
	log      io.Writer
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics accumulates a run's named values.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// endToEnd lists the metrics every untraced run reports, whatever the
// workload; BENCHMARK.json declares the same names. Each workload maps
// its own operation onto them (see each workload's run function).
var endToEnd = map[string]string{
	"setup_s":       "s",
	"work_s":        "s",
	"op_p50_ms":     "ms",
	"op_tail_ms":    "ms",
	"decided_share": "ratio",
	"peak_heap_mb":  "MB",
}

// perLayer lists the metrics every traced run reports. A layer a
// workload does not exercise reports 0.
var perLayer = map[string]string{
	"isle.parse_ms":              "ms",
	"isle.alloc_mb":              "MB",
	"isle.self_s":                "s",
	"core.rule_p50_ms":           "ms",
	"core.rule_p90_ms":           "ms",
	"core.prepare_self_s":        "s",
	"core.self_s":                "s",
	"core.units":                 "count",
	"core.queries":               "count",
	"core.escalations":           "count",
	"core.alloc_mb":              "MB",
	"smt.blast_self_s":           "s",
	"smt.simplify_self_s":        "s",
	"smt.solveeqs_self_s":        "s",
	"smt.units_self_s":           "s",
	"smt.blast_vars":             "count",
	"smt.blast_clauses":          "count",
	"smt.structhash_merged":      "count",
	"smt.terms_in":               "count",
	"smt.terms_out":              "count",
	"smt.preblast_share":         "ratio",
	"sat.self_s":                 "s",
	"sat.propagations":           "count",
	"sat.conflicts":              "count",
	"sat.decisions":              "count",
	"sat.restarts":               "count",
	"sat.elim_vars":              "count",
	"sat.subsumed":               "count",
	"sat.vivified":               "count",
	"sat.timeout_prop_share":     "ratio",
	"vcache.open_ms":             "ms",
	"vcache.probe_self_s":        "s",
	"vcache.io_self_s":           "s",
	"vcache.hit_share":           "ratio",
	"vcache.flush_ms":            "ms",
	"sched.self_s":               "s",
	"sched.steals":               "count",
	"sched.stolen_units":         "count",
	"serve.self_s":               "s",
	"serve.req_p99_ms":           "ms",
	"serve.queue_wait_p99_ms":    "ms",
	"serve.server_p50_ms":        "ms",
	"serve.http_overhead_p50_ms": "ms",
	"serve.coalesced_share":      "ratio",
	"serve.cached_share":         "ratio",
	"serve.rejected":             "count",
	"http.self_s":                "s",
	"obs.trace_overhead":         "ratio",
	"gc.cycles":                  "count",
	"gc.pause_ms":                "ms",
	"gen.late_p99_ms":            "ms",
	"harness.error_share":        "ratio",
	"ledger.other_s":             "s",
	"ledger.unmapped_s":          "s",
	"ledger.wall_s":              "s",
}

// workloads maps each workload name to its run function, which returns the
// metrics of the mode it ran in; verdict checks land in the checker.
var workloads = map[string]func(*config, *checker) (metrics, error){
	"cold-sweep": runColdSweep,
	"edit-loop":  runEditLoop,
	"serve-mix":  runServeMix,
}

// run parses args, runs one workload and writes the result line. exp
// overrides the embedded known-answer table (the tests flip an entry to
// show that a mismatch fails the command). It returns the exit code.
func run(args []string, stdout, stderr io.Writer, exp expectTable) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cold-sweep, edit-loop or serve-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "0 = untraced run reporting end-to-end metrics, 1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if exp == nil {
		var err error
		if exp, err = loadExpect(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	workDir, err := newWorkDir()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workDir:  workDir,
		log:      stderr,
	}
	chk := newChecker(exp)
	m, err := runWorkload(cfg, chk)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
		m.set("harness.error_share", "ratio", chk.errorShare())
	} else {
		m.set("decided_share", "ratio", chk.decidedShare())
	}
	for name, unit := range want {
		if _, ok := m[name]; !ok {
			m.set(name, unit, 0)
		}
	}
	for name, v := range m {
		if want[name] != v.Unit {
			fmt.Fprintf(stderr, "perfbench: metric %s (%s) is not declared\n", name, v.Unit)
			return 1
		}
	}
	chk.report(stderr)
	res := result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   m,
	}
	if res.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no operations attempted")
		return 1
	}
	printMetrics(stderr, m)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// newWorkDir makes a private scratch directory under .bench_build in the
// current directory (the checkout root), so a run writes nothing
// outside its checkout.
func newWorkDir() (string, error) {
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", fmt.Errorf("work dir: %w", err)
	}
	return os.MkdirTemp(base, "run-")
}

// printMetrics writes the metrics, sorted by name, for a human reader.
func printMetrics(w io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14s %s\n", n, strconv.FormatFloat(m[n].Value, 'g', 8, 64), m[n].Unit)
	}
}

// until reports whether a phase that started at start, and whose last
// repetition took last, has room for one more within limit.
func until(start time.Time, last, limit time.Duration) bool {
	return time.Since(start)+last <= limit
}

// secondsDur converts the --seconds value to a duration.
func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
