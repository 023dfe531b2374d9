package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"crocus/internal/obs"
)

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median, which keeps first-touch effects out. A set-up takes a
// few milliseconds and single ones move by half, so the median needs
// many: over eight runs of the corpora's parse, the median of 11 ranged
// 4.7-7.1 ms and the median of 31 5.9-6.4 ms.
const setupReps = 31

var sweepCorpora = []string{"aarch64", "x64", "midend"}

// coldRun is one cold sweep's timings.
type coldRun struct {
	wall, flush time.Duration
	rules       map[string]time.Duration // "corpus/rule" -> verification time
}

// runColdSweep is the Table 1 / Fig. 4 sweep: all three corpora verified
// from an empty cache at one worker, rule by rule. The solver does
// almost all the work.
//
// Set-up (setup_s): parse and typecheck the three corpora, open an
// empty vcache store. Measured: whole cold sweeps, repeated while
// --seconds allows. Each rule's time is its fastest over the run's
// sweeps, which filters out the stretches when the machine's other
// tenants slow the run down. work_s (sweep_s) is the sum of those times,
// and op_tail_ms the mean of those from the 90th percentile up (Fig. 4's
// tail: 12 of 118 rules). The 90th percentile alone is one rule's time
// (rotl_64's, with neighbours at 36 and 74 ms), and over ten runs its
// spread reached 27 % of its median. op_p50_ms is the median sweep's
// wall time: the per-rule median, a few milliseconds, moved 19-25 %
// between runs, so it stays a per-layer metric (core.rule_p50_ms).
func runColdSweep(cfg *config, chk *checker) (metrics, error) {
	prelude, texts, err := loadTexts(sweepCorpora...)
	if err != nil {
		return nil, err
	}
	bg := context.Background()

	var setups, opens []float64
	var progs []program
	for i := 0; i < setupReps; i++ {
		dir, err := os.MkdirTemp(cfg.workDir, "cold-setup-")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t := time.Now()
		if progs, err = parseCorpora(bg, prelude, texts, sweepCorpora...); err != nil {
			return nil, err
		}
		to := time.Now()
		c, err := openCache(bg, dir)
		if err != nil {
			return nil, err
		}
		opens = append(opens, ms(time.Since(to)))
		setups = append(setups, time.Since(t).Seconds())
		if err := c.Close(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}

	// coldSweep sweeps every corpus into a fresh, empty store.
	coldSweep := func(ctx context.Context, chk *checker) (coldRun, error) {
		r := coldRun{rules: map[string]time.Duration{}}
		dir, err := os.MkdirTemp(cfg.workDir, "cold-")
		if err != nil {
			return r, err
		}
		defer os.RemoveAll(dir)
		c, err := openCache(ctx, dir)
		if err != nil {
			return r, err
		}
		t := time.Now()
		for _, p := range progs {
			ts, err := sweep(ctx, p, c, chk, "")
			if err != nil {
				c.Close()
				return r, err
			}
			for i, d := range ts {
				r.rules[p.key+"/"+p.prog.Rules[i].Name] = d
			}
		}
		r.flush, err = flushCache(ctx, c)
		r.wall = time.Since(t)
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		return r, err
	}
	m := metrics{}

	if cfg.trace {
		// Untraced sweeps before and after the traced one are the baseline
		// for the tracing overhead (the faster of the two, so warm-up does
		// not count as overhead); the first is also the source of the
		// timing percentiles and GC figures.
		mem := startMem()
		base, err := coldSweep(bg, chk)
		if err != nil {
			return nil, err
		}
		allocMB, cycles, pause := mem.end()

		tr := obs.New()
		ctx := obs.WithTracer(bg, tr)
		tchk := newChecker(chk.exp)
		root := obs.Start(ctx, spanRun)
		mem = startMem()
		tp := time.Now()
		if _, err := parseCorpora(ctx, prelude, texts, sweepCorpora...); err != nil {
			return nil, err
		}
		parseMS := ms(time.Since(tp))
		parseAlloc, _, _ := mem.end()
		traced, err := coldSweep(ctx, tchk)
		root.End()
		chk.merge(tchk)
		if err != nil {
			return nil, err
		}
		if err := finishTrace(cfg, tr, m); err != nil {
			return nil, err
		}
		after, err := coldSweep(bg, chk)
		if err != nil {
			return nil, err
		}
		var rules []float64
		for _, d := range base.rules {
			rules = append(rules, ms(d))
		}
		p50, _ := quantile(rules, 0.5)
		p90, beyond := quantile(rules, 0.9)
		fmt.Fprintf(cfg.log, "core.rule_p90_ms over %d rules, %d beyond it\n", len(rules), beyond)
		m.set("isle.parse_ms", "ms", parseMS)
		m.set("isle.alloc_mb", "MB", parseAlloc)
		m.set("core.rule_p50_ms", "ms", p50)
		m.set("core.rule_p90_ms", "ms", p90)
		m.set("core.alloc_mb", "MB", allocMB)
		m.set("vcache.open_ms", "ms", median(opens))
		m.set("vcache.flush_ms", "ms", ms(base.flush))
		m.set("gc.cycles", "count", cycles)
		m.set("gc.pause_ms", "ms", pause)
		m.set("obs.trace_overhead", "ratio", traced.wall.Seconds()/min(base.wall, after.wall).Seconds())
		solverCounters(m, registryGetter(tr))
		tchk.workCounts(m)
		return m, nil
	}

	heap := startHeapSampler()
	start := time.Now()
	limit := secondsDur(cfg.seconds)
	var walls []float64
	best := map[string]time.Duration{}
	var last time.Duration
	for len(walls) < 2 || until(start, last, limit) {
		r, err := coldSweep(bg, chk)
		if err != nil {
			heap.peakMB()
			return nil, err
		}
		last = r.wall
		walls = append(walls, r.wall.Seconds())
		for k, d := range r.rules {
			if b, ok := best[k]; !ok || d < b {
				best[k] = d
			}
		}
	}
	var ruleMS []float64
	var sum time.Duration
	for _, d := range best {
		ruleMS = append(ruleMS, ms(d))
		sum += d
	}
	p50, _ := quantile(ruleMS, 0.5)
	tail, n := tailMean(ruleMS, 0.9)
	fmt.Fprintf(cfg.log, "cold-sweep: %d sweeps, median wall %.3fs; sweep_s from each rule's best time %.3fs; rule p50 %.3f ms; op_tail_ms is the mean of the %d rules from the p90 of %d up\n",
		len(walls), median(walls), sum.Seconds(), p50, n, len(ruleMS))
	m.set("setup_s", "s", median(setups))
	m.set("work_s", "s", sum.Seconds())
	m.set("op_p50_ms", "ms", 1000*median(walls))
	m.set("op_tail_ms", "ms", tail)
	m.set("peak_heap_mb", "MB", heap.peakMB())
	return m, nil
}
