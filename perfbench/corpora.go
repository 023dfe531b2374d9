package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/isle"
	"crocus/internal/obs"
	"crocus/internal/smt"
	"crocus/internal/vcache"
)

// isHardTail names the rules with units that exhaust the pinned budget:
// the aarch64 div/rem/rotl tail and two x64 addressing-mode rules. They
// are named, not measured, so the workloads stay the same when a change
// decides them. The edit-loop leaves them out (renaming one re-solves it
// to the budget, which is cold-sweep's business); serve-mix sends five
// of them as its hard-tail requests.
var isHardTail = map[string]bool{
	"urem_fits32": true, "srem_fits32": true, "udiv_fits32": true, "udiv_const_fits32": true,
	"sdiv_fits32": true, "urem_64": true, "sdiv_const_fits32": true, "srem_64": true, "rotl_64": true,
	"amode_add_reg": true, "amode_add_shift_patched": true,
}

// srcFile is one ISLE source file by name.
type srcFile struct{ name, src string }

// corpusFiles names each resident corpus's file; every program is the
// prelude plus these.
var corpusFiles = map[string]string{
	"aarch64": "aarch64.isle",
	"x64":     "x64.isle",
	"midend":  "midend.isle",
}

// readSource returns an embedded corpus file's text.
func readSource(name string) (srcFile, error) {
	s, err := corpus.Source(name)
	if err != nil {
		return srcFile{}, err
	}
	return srcFile{name, s}, nil
}

// parseFiles parses and typechecks one program from source text under
// the harness span "bench.parse" — the isle layer's whole cost.
func parseFiles(ctx context.Context, files ...srcFile) (*isle.Program, error) {
	sp := obs.Start(ctx, spanParse)
	defer sp.End()
	p := isle.NewProgram()
	for _, f := range files {
		if err := p.ParseFile(f.name, f.src); err != nil {
			return nil, err
		}
	}
	if err := p.Typecheck(); err != nil {
		return nil, err
	}
	return p, nil
}

// program is a parsed corpus ready to sweep.
type program struct {
	key  string // expected-table program key
	prog *isle.Program
}

// parseCorpora parses the named corpora (each with the prelude) from
// the given texts, keyed by corpus name.
func parseCorpora(ctx context.Context, prelude srcFile, texts map[string]srcFile, names ...string) ([]program, error) {
	out := make([]program, 0, len(names))
	for _, n := range names {
		p, err := parseFiles(ctx, prelude, texts[n])
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", n, err)
		}
		out = append(out, program{n, p})
	}
	return out, nil
}

// loadTexts reads the prelude and the named corpora's pristine sources.
func loadTexts(names ...string) (srcFile, map[string]srcFile, error) {
	prelude, err := readSource("prelude.isle")
	if err != nil {
		return srcFile{}, nil, err
	}
	texts := map[string]srcFile{}
	for _, n := range names {
		if texts[n], err = readSource(corpusFiles[n]); err != nil {
			return srcFile{}, nil, err
		}
	}
	return prelude, texts, nil
}

// sweepOptions are the pinned verifier options of every sweep: one
// worker, the pinned budget and backstop, the corpus's custom VCs.
func sweepOptions(cache *vcache.Cache) core.Options {
	return core.Options{
		Timeout:           backstop,
		PropagationBudget: budget,
		Custom:            corpus.CustomVCs(),
		Cache:             cache,
		Parallelism:       1,
	}
}

// sweep verifies every rule of p rule by rule through
// VerifyRuleContained, checks each rule's verdicts, and returns each
// rule's wall time. flawed names a rule carrying an injected flaw,
// whose verdict must be failure.
func sweep(ctx context.Context, p program, cache *vcache.Cache, chk *checker, flawed string) ([]time.Duration, error) {
	v := core.New(p.prog, sweepOptions(cache))
	times := make([]time.Duration, 0, len(p.prog.Rules))
	for _, r := range p.prog.Rules {
		sp := obs.Start(ctx, spanVerify)
		t := time.Now()
		rr := v.VerifyRuleContained(ctx, r)
		times = append(times, time.Since(t))
		sp.End()
		if rr == nil {
			return nil, ctx.Err()
		}
		units := fromCore(rr)
		chk.rule(p.key, r.Name, units, r.Name == flawed, lazyReplayer(p.prog, r))
	}
	return times, nil
}

// lazyReplayer builds the counterexample replayer on first use; most
// rules never fail.
func lazyReplayer(prog *isle.Program, r *isle.Rule) func(string, map[string]smt.Value) error {
	var f func(string, map[string]smt.Value) error
	return func(sig string, in map[string]smt.Value) error {
		if f == nil {
			f = replayer(prog, r)
		}
		return f(sig, in)
	}
}

// openCache opens (or creates) a vcache store under dir, timed under the
// harness span "bench.vcache.open".
func openCache(ctx context.Context, dir string) (*vcache.Cache, error) {
	sp := obs.Start(ctx, spanOpen)
	defer sp.End()
	return vcache.Open(dir)
}

// flushCache flushes the store under the harness span
// "bench.vcache.flush" and returns how long it took.
func flushCache(ctx context.Context, c *vcache.Cache) (time.Duration, error) {
	sp := obs.Start(ctx, spanFlush)
	defer sp.End()
	t := time.Now()
	err := c.Flush()
	return time.Since(t), err
}

// lhsVars lists the value variables bound in a rule's left-hand side, in
// first-occurrence order: the variables an edit may rename. Type
// variables (such as has_type's ty) are left out: they do not reach the
// verification conditions, so renaming one leaves every unit's
// fingerprint as it was and the edited rule hits the cache, and a
// seeded choice between them and value variables would change how much
// work a seed's edits do.
func lhsVars(r *isle.Rule) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(n *isle.TermNode)
	walk = func(n *isle.TermNode) {
		if n == nil {
			return
		}
		if n.Kind == isle.NVar && n.Type != "Type" && !seen[n.Name] {
			seen[n.Name] = true
			out = append(out, n.Name)
		}
		for _, a := range n.Args {
			walk(a)
		}
	}
	walk(r.LHS)
	return out
}

// ruleSpan returns the byte range of the `(rule NAME ...)` form in src.
func ruleSpan(src, name string) (int, int, error) {
	hdr := "(rule " + name
	from := 0
	for {
		i := strings.Index(src[from:], hdr)
		if i < 0 {
			return 0, 0, fmt.Errorf("rule %s not found", name)
		}
		i += from
		end := i + len(hdr)
		if end < len(src) && !isDelim(src[end]) {
			from = end // a longer rule name with this prefix
			continue
		}
		depth := 0
		for j := i; j < len(src); j++ {
			switch src[j] {
			case ';':
				for j < len(src) && src[j] != '\n' {
					j++
				}
			case '(':
				depth++
			case ')':
				depth--
				if depth == 0 {
					return i, j + 1, nil
				}
			}
		}
		return 0, 0, fmt.Errorf("rule %s is unbalanced", name)
	}
}

func isDelim(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '(' || c == ')' || c == ';'
}

// renameVar renames every occurrence of the token old to new inside
// rule's form in src: a consistent variable rename, which keeps the
// rule's meaning and verdict but changes its fingerprint.
func renameVar(src, rule, old, new string) (string, error) {
	i, j, err := ruleSpan(src, rule)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(len(src) + 64)
	b.WriteString(src[:i])
	n := 0
	for k := i; k < j; {
		if isDelim(src[k]) {
			b.WriteByte(src[k])
			k++
			continue
		}
		e := k
		for e < j && !isDelim(src[e]) {
			e++
		}
		if src[k:e] == old {
			b.WriteString(new)
			n++
		} else {
			b.WriteString(src[k:e])
		}
		k = e
	}
	b.WriteString(src[j:])
	if n == 0 {
		return "", fmt.Errorf("rule %s has no variable %s", rule, old)
	}
	return b.String(), nil
}
