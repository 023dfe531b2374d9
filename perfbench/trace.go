package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"crocus/internal/obs"
)

// Harness span names. The harness records these around its own calls
// into the program, on the same tracer the program's spans go to.
const (
	spanRun     = "bench.run"          // root of a traced pass
	spanParse   = "bench.parse"        // isle ParseFile + Typecheck
	spanVerify  = "bench.verify"       // one core VerifyRuleContained call
	spanOpen    = "bench.vcache.open"  // vcache.Open
	spanFlush   = "bench.vcache.flush" // vcache Flush
	spanRequest = "bench.request"      // one HTTP request, client side
)

// layerOf assigns each span name to a ledger layer (the repo's
// modules). Spans the table does not know land in "unmapped", so a
// span a later change adds still shows in the ledger.
var layerOf = map[string]string{
	spanParse:             "isle",
	spanVerify:            "core",
	obs.PhaseRule:         "core",
	obs.PhaseAttempt:      "core",
	obs.PhaseEscalation:   "core",
	obs.PhaseQueryApp:     "core",
	obs.PhaseQueryDist:    "core",
	obs.PhaseQueryEquiv:   "core",
	obs.PhaseMonomorphize: "core.prepare",
	obs.PhaseElaborate:    "core.prepare",
	obs.PhaseCacheProbe:   "vcache.probe",
	spanOpen:              "vcache.io",
	spanFlush:             "vcache.io",
	obs.PhaseSolveEqs:     "smt.solveeqs",
	obs.PhaseSimplify:     "smt.simplify",
	obs.PhaseUnits:        "smt.units",
	obs.PhaseBlast:        "smt.blast",
	obs.PhaseSolve:        "sat",
	obs.PhaseUnit:         "sched",
	obs.PhaseServeRequest: "serve",
	obs.PhaseServeQueue:   "serve",
	obs.PhaseServeParse:   "serve",
	obs.PhaseServeVerify:  "serve",
	spanRequest:           "http",
	spanRun:               "other",
}

// ledgerLayers lists the ledger's layers in report order, each with the
// per-layer metric its self time is reported as.
var ledgerLayers = []struct{ layer, metric string }{
	{"isle", "isle.self_s"},
	{"core", "core.self_s"},
	{"core.prepare", "core.prepare_self_s"},
	{"vcache.probe", "vcache.probe_self_s"},
	{"vcache.io", "vcache.io_self_s"},
	{"smt.solveeqs", "smt.solveeqs_self_s"},
	{"smt.simplify", "smt.simplify_self_s"},
	{"smt.units", "smt.units_self_s"},
	{"smt.blast", "smt.blast_self_s"},
	{"sat", "sat.self_s"},
	{"sched", "sched.self_s"},
	{"serve", "serve.self_s"},
	{"http", "http.self_s"},
	{"unmapped", "ledger.unmapped_s"},
}

// ledger is a traced pass's wall time split into exclusive (self) time
// per layer, plus "other": time inside the pass root but outside every
// layer span, or with no span open at all.
type ledger struct {
	wall  time.Duration
	self  map[string]float64 // layer -> seconds
	other float64
}

// seg is a stretch of one lane during which span name is the innermost
// open span.
type seg struct {
	start, end time.Duration
	name       string
}

// buildLedger attributes the root span's wall time to layers. Event
// carries no parent, so nesting is by interval on each lane (TID): a
// span's self time is its duration minus what its children on the same
// lane cover. Lanes other than 0 are the scheduler's workers; while any
// of them runs a span, the coordinating lane 0 is waiting on them, so
// the instant's time is split evenly between the busy workers' innermost
// spans. Otherwise it goes to lane 0's innermost span, or to "other".
// The layers plus "other" add up to the root's wall time.
func buildLedger(events []obs.Event) (ledger, error) {
	var root *obs.Event
	lanes := map[int64][]obs.Event{}
	for i := range events {
		ev := events[i]
		if ev.Name == spanRun && ev.TID == 0 {
			root = &events[i]
		}
		lanes[ev.TID] = append(lanes[ev.TID], ev)
	}
	if root == nil {
		return ledger{}, fmt.Errorf("trace has no %s span", spanRun)
	}
	lo, hi := root.Start, root.Start+root.Dur

	type lane struct {
		worker bool
		segs   []seg
		next   int
	}
	var all []*lane
	var cuts []time.Duration
	cuts = append(cuts, lo, hi)
	for tid, evs := range lanes {
		segs := laneSegments(evs, lo, hi)
		for _, s := range segs {
			cuts = append(cuts, s.start, s.end)
		}
		all = append(all, &lane{worker: tid != 0, segs: segs})
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	l := ledger{wall: root.Dur, self: map[string]float64{}}
	credit := func(name string, sec float64) {
		layer, ok := layerOf[name]
		if !ok {
			layer = "unmapped"
		}
		if layer == "other" {
			l.other += sec
			return
		}
		l.self[layer] += sec
	}
	var busy []string
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a || a < lo || b > hi {
			continue
		}
		dt := (b - a).Seconds()
		busy = busy[:0]
		var coord string
		for _, ln := range all {
			for ln.next < len(ln.segs) && ln.segs[ln.next].end <= a {
				ln.next++
			}
			if ln.next < len(ln.segs) && ln.segs[ln.next].start <= a {
				if ln.worker {
					busy = append(busy, ln.segs[ln.next].name)
				} else {
					coord = ln.segs[ln.next].name
				}
			}
		}
		switch {
		case len(busy) > 0:
			for _, n := range busy {
				credit(n, dt/float64(len(busy)))
			}
		case coord != "":
			credit(coord, dt)
		default:
			l.other += dt
		}
	}
	var sum float64
	for _, v := range l.self {
		sum += v
	}
	sum += l.other
	if d := sum - l.wall.Seconds(); d > 1e-6 || d < -1e-6 {
		return l, fmt.Errorf("ledger adds up to %.6fs, wall is %.6fs", sum, l.wall.Seconds())
	}
	return l, nil
}

// laneSegments turns one lane's spans into innermost-span stretches
// clipped to [lo, hi). A child that outlives its parent is clipped to
// the parent's end, keeping the nesting proper.
func laneSegments(evs []obs.Event, lo, hi time.Duration) []seg {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return evs[i].Dur > evs[j].Dur
	})
	type frame struct {
		name string
		end  time.Duration
	}
	var out []seg
	var stack []frame
	cur := lo
	emit := func(end time.Duration, name string) {
		if end > hi {
			end = hi
		}
		if end > cur {
			out = append(out, seg{cur, end, name})
			cur = end
		}
	}
	for _, ev := range evs {
		start, end := ev.Start, ev.Start+ev.Dur
		if end <= lo || start >= hi {
			continue
		}
		if start < lo {
			start = lo
		}
		for len(stack) > 0 && stack[len(stack)-1].end <= start {
			emit(stack[len(stack)-1].end, stack[len(stack)-1].name)
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			emit(start, stack[len(stack)-1].name)
			if top := stack[len(stack)-1].end; end > top {
				end = top
			}
		}
		if start > cur {
			cur = start
		}
		stack = append(stack, frame{ev.Name, end})
	}
	for len(stack) > 0 {
		emit(stack[len(stack)-1].end, stack[len(stack)-1].name)
		stack = stack[:len(stack)-1]
	}
	return out
}

// report adds the ledger's metrics and prints it as a table.
func (l ledger) report(w io.Writer, m metrics) {
	fmt.Fprintf(w, "ledger (traced wall %.3fs):\n", l.wall.Seconds())
	for _, ll := range ledgerLayers {
		v := l.self[ll.layer]
		m.set(ll.metric, "s", v)
		fmt.Fprintf(w, "  %-14s %9.4fs %6.2f%%\n", ll.layer, v, 100*safeDiv(v, l.wall.Seconds()))
	}
	fmt.Fprintf(w, "  %-14s %9.4fs %6.2f%%\n", "other", l.other, 100*safeDiv(l.other, l.wall.Seconds()))
	m.set("ledger.other_s", "s", l.other)
	m.set("ledger.wall_s", "s", l.wall.Seconds())
}

// writeSpans writes the tracer's spans as JSON lines to
// .bench_build/perfbench/spans/<workload>-seed<seed>.jsonl once the
// measured pass has ended.
func writeSpans(cfg *config, events []obs.Event) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type span struct {
		Name  string `json:"name"`
		Scope string `json:"scope,omitempty"`
		TID   int64  `json:"tid"`
		Start int64  `json:"start_ns"`
		Dur   int64  `json:"dur_ns"`
	}
	for _, ev := range events {
		if err := enc.Encode(span{ev.Name, ev.Scope, ev.TID, ev.Start.Nanoseconds(), ev.Dur.Nanoseconds()}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace computes the ledger of a traced pass, reports it, and
// writes the spans out.
func finishTrace(cfg *config, tr *obs.Tracer, m metrics) error {
	events := tr.Events()
	if d := tr.Dropped(); d > 0 {
		return fmt.Errorf("tracer dropped %d spans", d)
	}
	l, err := buildLedger(events)
	if err != nil {
		return err
	}
	l.report(cfg.log, m)
	path, err := writeSpans(cfg, events)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(cfg.log, "spans: %d written to %s\n", len(events), path)
	return nil
}

// solverCounters sets the smt, sat and vcache work counters of a traced
// pass from the program's registry counters, read through get (a
// counter the program no longer records reads 0).
func solverCounters(m metrics, get func(name string) float64) {
	m.set("smt.blast_vars", "count", get("blast.vars"))
	m.set("smt.blast_clauses", "count", get("blast.clauses"))
	m.set("smt.structhash_merged", "count", get("structhash.merged"))
	m.set("smt.terms_in", "count", get("simplify.terms_in"))
	m.set("smt.terms_out", "count", get("simplify.terms_out"))
	m.set("smt.preblast_share", "ratio", safeDiv(get("session.decided_preblast"), get("session.queries")))
	for _, n := range []string{"propagations", "conflicts", "decisions", "restarts", "elim_vars", "subsumed", "vivified"} {
		m.set("sat."+n, "count", get("sat."+n))
	}
	hits := get("vcache.hit")
	m.set("vcache.hit_share", "ratio", safeDiv(hits, hits+get("vcache.miss")+get("vcache.stale")))
}

// registryGetter reads counters from a tracer's registry snapshot.
func registryGetter(tr *obs.Tracer) func(string) float64 {
	c := tr.Registry().Counters()
	return func(name string) float64 { return float64(c[name]) }
}
