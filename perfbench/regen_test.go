package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"crocus/internal/core"
	"crocus/internal/corpus"
)

var regen = flag.Bool("regen", false, "rewrite expected.tsv from a sweep of every program the workloads run")

// TestRegenerateExpected rewrites the known-answer table. Each unit's
// answer is its verdict at the pinned budget; a unit that times out
// there is "unknown" (the div/rem tail does not decide within minutes
// even without a budget). Run it only after a deliberate corpus change,
// and review the diff: the table is what catches a verdict that flips.
func TestRegenerateExpected(t *testing.T) {
	if !*regen {
		t.Skip("pass -regen to rewrite expected.tsv")
	}
	type named struct {
		key   string
		files []string
	}
	progs := []named{{"aarch64", []string{"aarch64.isle"}}, {"x64", []string{"x64.isle"}}, {"midend", []string{"midend.isle"}}}
	for _, b := range corpus.Bugs() {
		progs = append(progs, named{"bug:" + b.ID, append(append([]string{}, b.Extra...), "bugs/"+b.ID+".isle")})
	}
	var lines []string
	for _, np := range progs {
		p, err := corpus.Load(np.files...)
		if err != nil {
			t.Fatal(err)
		}
		v := core.New(p, sweepOptions(nil))
		for _, r := range p.Rules {
			rr := v.VerifyRuleContained(context.Background(), r)
			for _, io := range rr.Insts {
				o := io.Outcome.String()
				switch io.Outcome {
				case core.OutcomeTimeout:
					o = "unknown"
				case core.OutcomeError:
					t.Fatalf("%s %s: contained error: %v", np.key, r.Name, io.Err)
				}
				lines = append(lines, fmt.Sprintf("%s\t%s\t%s\t%s", np.key, r.Name, sigString(io.Sig), o))
			}
		}
	}
	sort.Strings(lines)
	head := "# Known verdicts: program, rule, type instantiation, outcome. Written by TestRegenerateExpected.\n"
	if err := os.WriteFile("expected.tsv", []byte(head+strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
