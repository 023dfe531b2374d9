package main

import (
	_ "embed"
	"fmt"
	"io"
	"strings"
	"sync"

	"crocus/internal/core"
	"crocus/internal/isle"
	"crocus/internal/smt"
)

// expected.tsv holds the known verdict of every verification unit the
// workloads run: one line per (program, rule, type instantiation). The
// answer is the unit's verdict without a budget, so a unit that times
// out at the pinned budget still has one (and a later change that
// decides it is checked against it). Regenerate it with
// `go test -run TestRegenerateExpected -regen` only when the corpus
// itself changes.
//
//go:embed expected.tsv
var expectedTSV string

// unitKey names one verification unit: the program it belongs to
// ("aarch64", "x64", "midend" or "bug:<id>"), the rule and the printed
// type instantiation ("-" for none).
type unitKey struct{ prog, rule, sig string }

// expectTable maps each unit to its known outcome.
type expectTable map[unitKey]core.Outcome

func loadExpect() (expectTable, error) { return parseExpect(expectedTSV) }

func parseExpect(src string) (expectTable, error) {
	t := expectTable{}
	for i, line := range strings.Split(src, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("expected.tsv:%d: want 4 fields, got %d", i+1, len(f))
		}
		o, ok := outcomeByName[f[3]]
		if !ok {
			return nil, fmt.Errorf("expected.tsv:%d: unknown outcome %q", i+1, f[3])
		}
		t[unitKey{f[0], f[1], f[2]}] = o
	}
	return t, nil
}

// outcomeUnknown marks a unit no budget tried has decided (the div/rem
// tail): any decided verdict is accepted, but a failure must still come
// with a counterexample that replays.
const outcomeUnknown core.Outcome = -1

var outcomeByName = map[string]core.Outcome{
	"success":      core.OutcomeSuccess,
	"inapplicable": core.OutcomeInapplicable,
	"failure":      core.OutcomeFailure,
	"unknown":      outcomeUnknown,
}

// unitsOf returns how many units the table knows for a rule.
func (t expectTable) unitsOf(prog, rule string) int {
	n := 0
	for k := range t {
		if k.prog == prog && k.rule == rule {
			n++
		}
	}
	return n
}

func sigString(s *isle.Sig) string {
	if s == nil {
		return "-"
	}
	return s.String()
}

// checker compares verdicts with the known answers and counts the
// operations attempted and failed. Operations are verification units
// (sweeps) or requests (serve-mix). Timeouts are undecided, not
// failures. It is safe for concurrent use.
type checker struct {
	exp expectTable

	mu                   sync.Mutex
	attempted, failed    int64
	units, decided       int64
	mismatches           []string
	replayed             int64
	timeoutProps, props  int64
	queries, escalations int64
}

// merge adds o's counts into c.
func (c *checker) merge(o *checker) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += o.attempted
	c.failed += o.failed
	c.units += o.units
	c.decided += o.decided
	c.mismatches = append(c.mismatches, o.mismatches...)
	c.replayed += o.replayed
	c.timeoutProps += o.timeoutProps
	c.props += o.props
	c.queries += o.queries
	c.escalations += o.escalations
}

// workCounts sets the core layer's unit, query and escalation counts
// and the timeout propagation share.
func (c *checker) workCounts(m metrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m.set("core.units", "count", float64(c.units))
	m.set("core.queries", "count", float64(c.queries))
	m.set("core.escalations", "count", float64(c.escalations))
	m.set("sat.timeout_prop_share", "ratio", safeDiv(float64(c.timeoutProps), float64(c.props)))
}

func newChecker(exp expectTable) *checker { return &checker{exp: exp} }

// unitVerdict is the part of a unit's outcome the checker needs, from a
// core result or a daemon response alike.
type unitVerdict struct {
	sig         string
	outcome     core.Outcome
	cex         map[string]smt.Value // counterexample inputs (failures)
	hasCex      bool
	props       int64
	queries     int64
	escalations int64
	cached      bool
	errText     string
}

func fromCore(rr *core.RuleResult) []unitVerdict {
	out := make([]unitVerdict, len(rr.Insts))
	for i, io := range rr.Insts {
		u := unitVerdict{
			sig: sigString(io.Sig), outcome: io.Outcome, cached: io.Cached,
			props: io.Stats.Propagations, queries: io.Stats.Queries, escalations: int64(io.Escalations),
		}
		if io.Counterexample != nil {
			u.cex, u.hasCex = io.Counterexample.Inputs, true
		}
		if io.Err != nil {
			u.errText = io.Err.Error()
		}
		out[i] = u
	}
	return out
}

// rule checks one rule's unit verdicts. prog is the program key into the
// table; replay, when non-nil, runs a counterexample through the
// concrete interpreter and reports whether it reproduces the failure.
// mustFail marks a flaw-injected rule: its known answer is failure, at
// least one unit must fail, and its other units are not checked against
// the table (the flaw may leave some instantiations correct).
func (c *checker) rule(prog, rule string, units []unitVerdict, mustFail bool, replay func(sig string, in map[string]smt.Value) error) {
	var bad []string
	anyFail := false
	for _, u := range units {
		n := len(bad)
		switch {
		case u.outcome == core.OutcomeError:
			bad = append(bad, fmt.Sprintf("%s %s %s: contained error: %s", prog, rule, u.sig, u.errText))
		case u.outcome == core.OutcomeTimeout:
			// undecided, not an error
		case mustFail:
			anyFail = anyFail || u.outcome == core.OutcomeFailure
		default:
			want, known := c.exp[unitKey{prog, rule, u.sig}]
			if !known {
				bad = append(bad, fmt.Sprintf("%s %s %s: no known answer (got %s)", prog, rule, u.sig, u.outcome))
			} else if want != outcomeUnknown && u.outcome != want {
				bad = append(bad, fmt.Sprintf("%s %s %s: got %s, known answer %s", prog, rule, u.sig, u.outcome, want))
			}
		}
		if len(bad) == n && u.outcome == core.OutcomeFailure {
			if !u.hasCex {
				bad = append(bad, fmt.Sprintf("%s %s %s: failure without a counterexample", prog, rule, u.sig))
			} else if replay != nil {
				if err := replay(u.sig, u.cex); err != nil {
					bad = append(bad, fmt.Sprintf("%s %s %s: counterexample does not replay: %v", prog, rule, u.sig, err))
				}
			}
		}
	}
	if mustFail && !anyFail {
		bad = append(bad, fmt.Sprintf("%s %s: injected flaw not caught", prog, rule))
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, u := range units {
		c.attempted++
		c.units++
		if u.outcome != core.OutcomeTimeout && u.outcome != core.OutcomeError {
			c.decided++
		}
		if u.outcome == core.OutcomeFailure && replay != nil {
			c.replayed++
		}
		if !u.cached {
			c.props += u.props
			c.queries += u.queries
			c.escalations += u.escalations
			if u.outcome == core.OutcomeTimeout {
				c.timeoutProps += u.props
			}
		}
	}
	if len(bad) > 0 {
		// Count every unit of a mismatching rule as failed: a rule is
		// the smallest thing a verdict is reported for.
		c.failed += int64(len(units))
		if len(units) == 0 {
			c.attempted++
			c.failed++
		}
		c.mismatches = append(c.mismatches, bad...)
	}
}

// request records a daemon request that carries no verdict: a
// malformed request (ok = it got the expected 4xx) or a request that
// failed or was refused, which counts its rule's units as undecided.
func (c *checker) request(ok bool, undecidedUnits int, why string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.units += int64(undecidedUnits)
	if !ok {
		c.failed++
		c.mismatches = append(c.mismatches, why)
	}
}

func (c *checker) decidedShare() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.units == 0 {
		return 0
	}
	return float64(c.decided) / float64(c.units)
}

func (c *checker) errorShare() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

func (c *checker) report(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(w, "verdicts: %d operations, %d failed (error_share %.6f); units %d decided of %d; %d counterexamples replayed\n",
		c.attempted, c.failed, safeDiv(float64(c.failed), float64(c.attempted)), c.decided, c.units, c.replayed)
	for i, m := range c.mismatches {
		if i == 20 {
			fmt.Fprintf(w, "  ... %d more\n", len(c.mismatches)-i)
			break
		}
		fmt.Fprintln(w, "  MISMATCH", m)
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayer returns a replay function for rule in prog: it runs the
// counterexample's inputs through the concrete interpreter at the
// failing instantiation and demands that the rule matches and its two
// sides differ. Integer-sorted inputs (type-level values) are fixed by
// the instantiation and left out.
func replayer(prog *isle.Program, rule *isle.Rule) func(string, map[string]smt.Value) error {
	v := core.New(prog, core.Options{})
	return func(sig string, in map[string]smt.Value) error {
		var at *isle.Sig
		found := false
		for _, s := range v.Sigs(rule) {
			if sigString(s) == sig {
				at, found = s, true
				break
			}
		}
		if !found {
			return fmt.Errorf("no instantiation %s", sig)
		}
		inputs := make(map[string]smt.Value, len(in))
		for name, val := range in {
			if val.Sort.Kind != smt.KindInt {
				inputs[name] = val
			}
		}
		res, err := v.Interpret(rule, at, inputs)
		if err != nil {
			return err
		}
		if !res.Matches {
			return fmt.Errorf("inputs do not match the rule")
		}
		if res.Equal {
			return fmt.Errorf("both sides evaluate to %s", res.LHSValue)
		}
		return nil
	}
}
