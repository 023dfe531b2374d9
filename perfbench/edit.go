package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"crocus/internal/obs"
	"crocus/internal/vcache"
)

// editCorpora are the sources a developer edits in the edit-loop.
var editCorpora = []string{"aarch64", "x64"}

// flaw is one textual defect injected into a rule: the anchor text is
// replaced once, and the rule's verdict must become failure.
type flaw struct {
	corpus, rule, old, new string
}

// flaws is the fixed flaw catalogue, the same defects the corpus's
// mutation tests inject (operand swaps, dropped masks, wrong
// extensions).
var flaws = []flaw{
	{"aarch64", "isub_base",
		"(rule isub_base\n\t(lower (has_type (fits_in_64 ty) (isub x y)))\n\t(a64_sub (operand_size ty) x y))",
		"(rule isub_base\n\t(lower (has_type (fits_in_64 ty) (isub x y)))\n\t(a64_sub (operand_size ty) y x))"},
	{"aarch64", "rotl_64", "(a64_rotr 64 x (a64_sub 64 (zero) y)))", "(a64_rotr 64 x y))"},
	{"aarch64", "cls_narrow",
		"(a64_sub_imm 32 (a64_cls 32 (sext32 x)) (width_gap ty)))",
		"(a64_sub_imm 32 (a64_cls 32 (zext32 x)) (width_gap ty)))"},
	{"aarch64", "ishl_fits32", "(a64_lsl 32 x (a64_and_imm 32 y (shift_mask ty))))", "(a64_lsl 32 x y))"},
	{"aarch64", "ushr_fits32",
		"(a64_lsr 32 (zext32 x) (a64_and_imm 32 y (shift_mask ty))))",
		"(a64_lsr 32 (sext32 x) (a64_and_imm 32 y (shift_mask ty))))"},
	{"aarch64", "iadd_madd_right", "(a64_madd (operand_size ty) y z x))", "(a64_madd (operand_size ty) y x z))"},
	{"x64", "x64_isub_base",
		"(rule x64_isub_base\n\t(lower (has_type (fits_in_64 ty) (isub x y)))\n\t(x64_sub ty x y))",
		"(rule x64_isub_base\n\t(lower (has_type (fits_in_64 ty) (isub x y)))\n\t(x64_sub ty y x))"},
	{"x64", "x64_ishl_fits32", "(x64_shl 32 x (x64_and 32 y (x64_mov_imm (shift_mask_u64 ty)))))", "(x64_shl 32 x y))"},
	{"x64", "x64_ushr_fits32", "(x64_shr 32 (x64_movzx ty x)", "(x64_shr 32 (x64_movsx_to32 ty x)"},
	{"x64", "x64_uextend_lower", "(x64_movzx (widthof_value x) x))", "(x64_movsx (widthof_value x) x))"},
	{"x64", "x64_imul_8",
		"(rule x64_imul_8\n\t(lower (has_type 8 (imul x y)))\n\t(x64_imul 32 x y))",
		"(rule x64_imul_8\n\t(lower (has_type 8 (imul x y)))\n\t(x64_imul 32 x x))"},
}

// edit is one save in the edit-loop: a consistent rename of one of a
// rule's variables, optionally on top of an injected flaw. Every edit
// carries a rename whose new name is unique to the round, so the edited
// rule's units always miss the cache, also when a flaw recurs.
type edit struct {
	corpus, rule, variable string
	flaw                   *flaw
}

// editCycle lists one edit per rule of the edited corpora plus one per
// catalogued flaw, in seeded order with seeded variable choices. Every
// edit renames a value variable, so all of the edited rule's units miss
// the cache whichever variable the seed picks: every seed runs the same
// rules' edits and the same amount of solving.
func editCycle(rng *rand.Rand, progs []program) []edit {
	var out []edit
	vars := map[string][]string{}
	for _, p := range progs {
		for _, r := range p.prog.Rules {
			vs := lhsVars(r)
			vars[p.key+"/"+r.Name] = vs // a flaw may target a hard-tail rule
			if len(vs) == 0 || isHardTail[r.Name] {
				continue
			}
			out = append(out, edit{corpus: p.key, rule: r.Name, variable: vs[rng.Intn(len(vs))]})
		}
	}
	for i := range flaws {
		f := &flaws[i]
		vs := vars[f.corpus+"/"+f.rule]
		if len(vs) == 0 {
			continue
		}
		out = append(out, edit{corpus: f.corpus, rule: f.rule, variable: vs[rng.Intn(len(vs))], flaw: f})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// apply returns the edited source text of e's corpus; fresh is the
// round's unique variable name.
func (e edit) apply(src, fresh string) (string, error) {
	if e.flaw != nil {
		if !strings.Contains(src, e.flaw.old) {
			return "", fmt.Errorf("flaw anchor for %s not found", e.rule)
		}
		src = strings.Replace(src, e.flaw.old, e.flaw.new, 1)
	}
	return renameVar(src, e.rule, e.variable, fresh)
}

// runEditLoop is a developer's save-and-recheck loop against a warm,
// persisted vcache: each round applies one edit to the aarch64 or x64
// source, then re-parses both and re-sweeps them at one worker. Only the
// edited rule's units miss the cache, so the front end, elaboration,
// fingerprinting and cache probes dominate.
//
// Set-up (setup_s): parse both corpora and open the warm store (built
// untimed beforehand by a cold sweep). Measured: whole cycles of
// rounds, as many as editCycles gives for --seconds. Each edit's time is
// its fastest round (the edits of one cycle recur in the next with fresh
// names); op_p50_ms and op_tail_ms are the median and 90th percentile of
// those times, and work_s their sum: one cycle.
func runEditLoop(cfg *config, chk *checker) (metrics, error) {
	prelude, texts, err := loadTexts(editCorpora...)
	if err != nil {
		return nil, err
	}
	bg := context.Background()
	warm := filepath.Join(cfg.workDir, "warm")
	pristine, err := parseCorpora(bg, prelude, texts, editCorpora...)
	if err != nil {
		return nil, err
	}
	if err := warmStore(bg, warm, pristine, chk); err != nil {
		return nil, err
	}

	var setups, opens []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		if _, err := parseCorpora(bg, prelude, texts, editCorpora...); err != nil {
			return nil, err
		}
		to := time.Now()
		c, err := openCache(bg, warm)
		if err != nil {
			return nil, err
		}
		opens = append(opens, ms(time.Since(to)))
		setups = append(setups, time.Since(t).Seconds())
		if err := c.Close(); err != nil {
			return nil, err
		}
	}
	cache, err := openCache(bg, warm)
	if err != nil {
		return nil, err
	}
	defer cache.Close() // the store lives in the run's work dir, removed at exit

	rng := rand.New(rand.NewSource(cfg.seed))
	cycle := editCycle(rng, pristine)
	tag := fmt.Sprintf("pb%x", rng.Uint32())
	nround := 0
	// round runs one edit end to end: it returns the recheck time and
	// each rule's verification time.
	round := func(ctx context.Context, e edit, chk *checker) (time.Duration, []time.Duration, error) {
		nround++
		edited, err := e.apply(texts[e.corpus].src, fmt.Sprintf("%s_%d", tag, nround))
		if err != nil {
			return 0, nil, err
		}
		files := map[string]srcFile{}
		for k, v := range texts {
			files[k] = v
		}
		files[e.corpus] = srcFile{texts[e.corpus].name, edited}
		t := time.Now()
		progs, err := parseCorpora(ctx, prelude, files, editCorpora...)
		if err != nil {
			return 0, nil, err
		}
		var rules []time.Duration
		for _, p := range progs {
			flawed := ""
			if e.flaw != nil && p.key == e.corpus {
				flawed = e.rule
			}
			ts, err := sweep(ctx, p, cache, chk, flawed)
			if err != nil {
				return 0, nil, err
			}
			rules = append(rules, ts...)
		}
		return time.Since(t), rules, nil
	}
	m := metrics{}

	if cfg.trace {
		// The cycle's first traceRounds edits, untraced, traced, and
		// untraced again (the faster untraced pass is the overhead's
		// baseline); round-unique names keep every pass's edits cold.
		n := traceRounds
		if n > len(cycle) {
			n = len(cycle)
		}
		var rules []time.Duration
		mem := startMem()
		t := time.Now()
		for _, e := range cycle[:n] {
			_, ts, err := round(bg, e, chk)
			if err != nil {
				return nil, err
			}
			rules = append(rules, ts...)
		}
		base := time.Since(t)
		allocMB, cycles, pause := mem.end()

		tr := obs.New()
		ctx := obs.WithTracer(bg, tr)
		tchk := newChecker(chk.exp)
		root := obs.Start(ctx, spanRun)
		t = time.Now()
		for _, e := range cycle[:n] {
			if _, _, err = round(ctx, e, tchk); err != nil {
				break
			}
		}
		traced := time.Since(t)
		root.End()
		chk.merge(tchk)
		if err != nil {
			return nil, err
		}
		if err := finishTrace(cfg, tr, m); err != nil {
			return nil, err
		}
		t = time.Now()
		for _, e := range cycle[:n] {
			if _, _, err := round(bg, e, chk); err != nil {
				return nil, err
			}
		}
		base = min(base, time.Since(t))
		mem = startMem()
		tp := time.Now()
		if _, err := parseCorpora(bg, prelude, texts, editCorpora...); err != nil {
			return nil, err
		}
		m.set("isle.parse_ms", "ms", ms(time.Since(tp)))
		parseAlloc, _, _ := mem.end()
		fl, err := flushCache(bg, cache)
		if err != nil {
			return nil, err
		}
		p50, _ := quantile(durationsMS(rules), 0.5)
		p90, _ := quantile(durationsMS(rules), 0.9)
		m.set("isle.alloc_mb", "MB", parseAlloc)
		m.set("core.rule_p50_ms", "ms", p50)
		m.set("core.rule_p90_ms", "ms", p90)
		m.set("core.alloc_mb", "MB", allocMB)
		m.set("vcache.open_ms", "ms", median(opens))
		m.set("vcache.flush_ms", "ms", ms(fl))
		m.set("gc.cycles", "count", cycles)
		m.set("gc.pause_ms", "ms", pause)
		m.set("obs.trace_overhead", "ratio", traced.Seconds()/base.Seconds())
		solverCounters(m, registryGetter(tr))
		tchk.workCounts(m)
		return m, nil
	}

	heap := startHeapSampler()
	ncycles := editCycles(cfg.seconds)
	best := make([]time.Duration, len(cycle))
	order := make([]int, len(cycle))
	for i := range order {
		order[i] = i
	}
	var cycles []float64
	for len(cycles) < ncycles {
		t := time.Now()
		for _, i := range order {
			d, _, err := round(bg, cycle[i], chk)
			if err != nil {
				heap.peakMB()
				return nil, err
			}
			if best[i] == 0 || d < best[i] {
				best[i] = d
			}
		}
		cycles = append(cycles, time.Since(t).Seconds())
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	var rounds []float64
	var sum time.Duration
	for _, d := range best {
		rounds = append(rounds, ms(d))
		sum += d
	}
	p50, _ := quantile(rounds, 0.5)
	p90, beyond := quantile(rounds, 0.9)
	fmt.Fprintf(cfg.log, "edit-loop: %d cycles of %d edits (median cycle %.3fs); recheck_p90_ms over the %d edits' best rounds, %d beyond it\n",
		len(cycles), len(cycle), median(cycles), len(rounds), beyond)
	m.set("setup_s", "s", median(setups))
	m.set("work_s", "s", sum.Seconds())
	m.set("op_p50_ms", "ms", p50)
	m.set("op_tail_ms", "ms", p90)
	m.set("peak_heap_mb", "MB", heap.peakMB())
	return m, nil
}

// editCycles is how many cycles a run of the given length measures: one
// per 15 seconds, at least two. A cycle (117 rounds) took 9-13 s on a
// 2-vCPU VM, so two fill a 30 s run. The count is fixed in advance
// rather than read off the clock, because a clock-bound loop ran three
// cycles when the host was fast and two when it was slow, and the
// fastest of three rounds widened the gap between the two.
func editCycles(seconds float64) int {
	return max(2, int(math.Round(seconds/15)))
}

// traceRounds is how many edits a traced edit-loop run replays.
const traceRounds = 48

// warmStore builds the persisted vcache the edit-loop and serve-mix
// start from: a cold sweep of progs into dir, flushed and closed.
func warmStore(ctx context.Context, dir string, progs []program, chk *checker) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c, err := vcache.Open(dir)
	if err != nil {
		return err
	}
	for _, p := range progs {
		if _, err := sweep(ctx, p, c, chk, ""); err != nil {
			c.Close()
			return err
		}
	}
	if err := c.Flush(); err != nil {
		c.Close()
		return err
	}
	return c.Close()
}
