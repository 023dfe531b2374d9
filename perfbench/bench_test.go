package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"crocus/internal/core"
	"crocus/internal/isle"
	"crocus/internal/obs"
)

// runOnce runs the command in-process and decodes its result line.
func runOnce(t *testing.T, exp expectTable, args ...string) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, exp)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, no result line: %v\nstderr:\n%s", code, err, stderr.String())
	}
	return code, res
}

// TestDeterministicAtOneWorker runs the two single-worker workloads
// twice with the same seed: decided_share and the work counters of the
// traced run must repeat exactly. (serve-mix's decided_share is not
// checked: at MaxInflight > 1 a unit's propagation count depends on the
// session history of the worker that solves it, so a unit near the
// budget can flip between decided and timeout; the benchmark reports
// that drift rather than hiding it.)
func TestDeterministicAtOneWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload four times")
	}
	exp, err := loadExpect()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"cold-sweep", "edit-loop"} {
		t.Run(wl, func(t *testing.T) {
			args := []string{"--workload", wl, "--seed", "7", "--seconds", "1"}
			var shares []float64
			var counters []map[string]float64
			for i := 0; i < 2; i++ {
				code, res := runOnce(t, exp, append(args, "--trace", "0")...)
				if code != 0 || !res.Correct {
					t.Fatalf("untraced run %d: exit %d, %d of %d failed", i, code, res.Failed, res.Attempted)
				}
				shares = append(shares, res.Metrics["decided_share"].Value)
				code, res = runOnce(t, exp, append(args, "--trace", "1")...)
				if code != 0 || !res.Correct {
					t.Fatalf("traced run %d: exit %d, %d of %d failed", i, code, res.Failed, res.Attempted)
				}
				c := map[string]float64{}
				for _, n := range []string{"sat.propagations", "smt.blast_clauses", "vcache.hit_share", "core.units"} {
					c[n] = res.Metrics[n].Value
				}
				counters = append(counters, c)
			}
			if shares[0] != shares[1] {
				t.Errorf("decided_share %v then %v", shares[0], shares[1])
			}
			for n, v := range counters[0] {
				if counters[1][n] != v {
					t.Errorf("%s %v then %v", n, v, counters[1][n])
				}
			}
			t.Logf("decided_share %v, counters %v", shares[0], counters[0])
		})
	}
}

// TestColdSweepDecides450 pins the cold sweep's shape at the pinned
// budget: 469 units per sweep, 450 decided.
func TestColdSweepDecides450(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full cold sweep")
	}
	chk := newChecker(mustExpect(t))
	dir, err := newWorkDir()
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := &config{workload: "cold-sweep", seed: 1, seconds: 0.001, workDir: dir, log: &bytes.Buffer{}}
	if _, err := runColdSweep(cfg, chk); err != nil {
		t.Fatal(err)
	}
	// The run sweeps at least twice.
	sweeps := chk.units / 469
	if sweeps < 1 || chk.units != 469*sweeps || chk.decided != 450*sweeps || chk.failed != 0 {
		t.Fatalf("units %d, decided %d, failed %d; want 469, 450, 0 per sweep", chk.units, chk.decided, chk.failed)
	}
}

// TestFlippedAnswerFails flips one known answer: the command must
// report the mismatch and exit non-zero.
func TestFlippedAnswerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full cold sweep")
	}
	exp := mustExpect(t)
	k := unitKey{"midend", "bor_band_not_fixed", "-"}
	for key := range exp {
		if key.prog == "midend" && exp[key] == core.OutcomeSuccess {
			k = key
		}
	}
	if exp[k] != core.OutcomeSuccess {
		t.Fatal("no midend success unit to flip")
	}
	exp[k] = core.OutcomeFailure
	code, res := runOnce(t, exp, "--workload", "cold-sweep", "--seed", "1", "--seconds", "0.001", "--trace", "0")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("flipped answer: exit %d, correct %v, failed %d", code, res.Correct, res.Failed)
	}
}

func mustExpect(t *testing.T) expectTable {
	t.Helper()
	exp, err := loadExpect()
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestLedgerAddsUp checks the ledger on a hand-built trace: nested
// self times, a worker lane taking precedence over the waiting lane 0,
// and time with no span open going to "other".
func TestLedgerAddsUp(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	events := []obs.Event{
		{Name: spanRun, TID: 0, Start: 0, Dur: ms(100)},
		{Name: obs.PhaseRule, TID: 0, Start: ms(10), Dur: ms(60)},
		{Name: obs.PhaseSolve, TID: 0, Start: ms(20), Dur: ms(10)},
		{Name: obs.PhaseUnit, TID: 1, Start: ms(40), Dur: ms(20)},
		{Name: obs.PhaseBlast, TID: 1, Start: ms(45), Dur: ms(5)},
		{Name: obs.PhaseUnit, TID: 2, Start: ms(50), Dur: ms(20)},
	}
	l, err := buildLedger(events)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"core":      0.020, // rule: 10-20 and 30-40; from 40 on the workers run
		"sat":       0.010,
		"sched":     0.025, // 40-45, 50-60 on both workers, 60-70
		"smt.blast": 0.005,
	}
	for layer, v := range want {
		if d := l.self[layer] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s self %.4fs, want %.4fs", layer, l.self[layer], v)
		}
	}
	if d := l.other - 0.040; d > 1e-9 || d < -1e-9 {
		t.Errorf("other %.4fs, want 0.040s", l.other)
	}
}

// TestRenameVar checks that a rename touches only whole tokens inside
// the named rule.
func TestRenameVar(t *testing.T) {
	src := "(rule a (f x xx) (g x))\n(rule ab (f x) x)\n"
	got, err := renameVar(src, "ab", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if want := "(rule a (f x xx) (g x))\n(rule ab (f y) y)\n"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if _, err := renameVar(src, "a", "zz", "y"); err == nil {
		t.Fatal("renaming a missing variable succeeded")
	}
}

// TestTailMean checks that the tail mean averages the samples from the
// nearest-rank quantile up: with 20 samples the p90 is the 18th, so the
// tail is the 18th to the 20th.
func TestTailMean(t *testing.T) {
	var xs []float64
	for i := 20; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if v, n := tailMean(xs, 0.9); v != 19 || n != 3 {
		t.Fatalf("tailMean = %v over %d samples, want 19 over 3", v, n)
	}
	if v, n := tailMean([]float64{5}, 0.9); v != 5 || n != 1 {
		t.Fatalf("tailMean of one sample = %v over %d, want 5 over 1", v, n)
	}
}

// TestMixComposition checks the serve-mix generator: a round holds the
// same requests whatever the seed, every inline request renames a value
// variable, and a replay gives each inline request a fresh name while a
// duplicate pair keeps sharing one.
func TestMixComposition(t *testing.T) {
	_, srcs, progs, err := mixInputs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]bool{} // "prog/rule/var" of every type variable
	for key, p := range progs {
		for _, r := range p.Rules {
			var walk func(n *isle.TermNode)
			walk = func(n *isle.TermNode) {
				if n == nil {
					return
				}
				if n.Kind == isle.NVar && n.Type == "Type" {
					types[key+"/"+r.Name+"/"+n.Name] = true
				}
				for _, a := range n.Args {
					walk(a)
				}
			}
			walk(r.LHS)
		}
	}
	var shapes []map[string]int
	for _, seed := range []int64{1, 2} {
		g, err := newMixGen(seed, progs, srcs)
		if err != nil {
			t.Fatal(err)
		}
		shape := map[string]int{}
		for _, closed := range []bool{false, true} {
			round, err := g.requests(mixRound, openRate, closed)
			if err != nil {
				t.Fatal(err)
			}
			again, err := g.replay(round)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range round {
				shape[fmt.Sprintf("%v %s %s/%s", closed, kindNames[r.kind], r.prog, r.rule)]++
				if r.files == nil {
					continue
				}
				if types[r.prog+"/"+r.rule+"/"+r.old] {
					t.Errorf("%s request renames type variable %s of %s", kindNames[r.kind], r.old, r.rule)
				}
				if bytes.Equal(again[i].body, r.body) {
					t.Errorf("position %d (%s): the replay keeps the request's name", i, kindNames[r.kind])
				}
				if r.second && !bytes.Equal(again[i].body, again[i-1].body) {
					t.Errorf("position %d: replayed duplicate pair does not share its body", i)
				}
			}
		}
		shapes = append(shapes, shape)
	}
	if !reflect.DeepEqual(shapes[0], shapes[1]) {
		t.Errorf("round composition depends on the seed")
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the metrics the command reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit string }
		want map[string]string
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		seen := map[string]bool{}
		for _, m := range c.got {
			if c.want[m.Name] != m.Unit {
				t.Errorf("%s: %s (%s) is not what the command reports", c.what, m.Name, m.Unit)
			}
			seen[m.Name] = true
		}
		for name := range c.want {
			if !seen[name] {
				t.Errorf("%s: %s is reported but not declared", c.what, name)
			}
		}
	}
}
