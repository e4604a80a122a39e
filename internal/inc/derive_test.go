package inc

import (
	"fmt"
	"reflect"
	"testing"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/parser"
	"awam/internal/term"
	"awam/internal/wam"
)

// linked compiles clauses with Link against base, as a derived System
// does: clause objects shared with base's program are copied.
func linked(t *testing.T, tab *term.Tab, clauses []term.Clause, base compiler.Base) (*wam.Module, *term.Program, []bool) {
	t.Helper()
	prog, err := term.NewProgram(clauses)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := compiler.ExpandedProgram(tab, prog)
	if err != nil {
		t.Fatal(err)
	}
	mod, copied, err := compiler.Link(tab, exp, base, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return mod, exp, copied
}

// condView renders a condensation's components and PredSCC.
func condView(tab *term.Tab, c *Condensation) string {
	out := fmt.Sprintln(len(c.PredSCC))
	for i, scc := range c.SCCs {
		out += fmt.Sprintf("%d %t %v", i, scc.Undefined, scc.Callees)
		for _, fn := range scc.Members {
			out += fmt.Sprintf(" %s=%d", tab.FuncString(fn), c.PredSCC[fn])
		}
		out += "\n"
	}
	return out
}

// TestDeriveCondensation: a condensation derived from the base's equals
// a fresh one after edits that keep, dirty, merge and orphan
// components, and its fingerprints equal a fresh plan's while hashing
// only the dirty cone; a partial plan (roots) agrees with the whole one.
func TestDeriveCondensation(t *testing.T) {
	tab := term.NewTab()
	clauses, err := parser.ParseClauses(tab, bench.WideProgramSeeded(8, 1).Source)
	if err != nil {
		t.Fatal(err)
	}
	extra := func(src string) term.Clause {
		cl, err := parser.ParseClauses(tab, src)
		if err != nil {
			t.Fatal(err)
		}
		return cl[0]
	}
	without := func(pred string) []term.Clause {
		var out []term.Clause
		for _, cl := range clauses {
			if tab.Name(cl.Head.Fn.Name) != pred {
				out = append(out, cl)
			}
		}
		return out
	}
	baseMod, baseProg, _ := linked(t, tab, clauses, compiler.Base{})
	cfg := core.Config{}
	for _, tc := range []struct {
		name    string
		clauses []term.Clause
		hashed  int // fingerprints hashed again; -1: not checked
	}{
		{"neutral fact", append(clauses[:len(clauses):len(clauses)], extra("p3_use(mutant).")), 4},
		{"back-call merges components", append(clauses[:len(clauses):len(clauses)], extra("p3_app(_, _, _) :- p3_main.")), -1},
		{"orphan", without("p3_check"), -1},
		{"new undefined callee", append(clauses[:len(clauses):len(clauses)], extra("p5_q(X) :- nowhere(X).")), -1},
		{"unchanged", clauses, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := NewCondensation(baseMod)
			full := base.ForwardPlan(cfg)
			if full.Hashed != len(base.SCCs) {
				t.Fatalf("first plan hashed %d of %d components", full.Hashed, len(base.SCCs))
			}
			if again := base.ForwardPlan(cfg); again.Hashed != 0 || !reflect.DeepEqual(again.Fingerprints, full.Fingerprints) {
				t.Fatalf("second plan hashed %d components", again.Hashed)
			}
			mod, _, copied := linked(t, tab, tc.clauses, compiler.Base{Mod: baseMod, Prog: baseProg})
			derived, fresh := base.Derive(mod, copied), NewCondensation(mod)
			if got, want := condView(tab, derived), condView(tab, fresh); got != want {
				t.Fatalf("derived condensation:\n%s\nwant:\n%s", got, want)
			}
			for i, k := range derived.Base {
				if k >= 0 && !reflect.DeepEqual(base.SCCs[k].Members, derived.SCCs[i].Members) {
					t.Fatalf("component %d maps to base %d with other members", i, k)
				}
			}
			dp, fp := derived.ForwardPlan(cfg), fresh.ForwardPlan(cfg)
			if !reflect.DeepEqual(dp.Fingerprints, fp.Fingerprints) {
				t.Fatal("derived fingerprints differ from a fresh plan's")
			}
			if tc.hashed >= 0 && dp.Hashed != tc.hashed {
				t.Errorf("derived plan hashed %d fingerprints, want %d", dp.Hashed, tc.hashed)
			}
			if dp.Hashed >= len(derived.SCCs) {
				t.Errorf("derived plan hashed all %d fingerprints", dp.Hashed)
			}
			// Under per-component salts, a salt that changes for one
			// component rehashes exactly the components that reach it.
			target := tab.Func("p1_len", 2)
			salt := func(other string) func(*SCC) string {
				return func(scc *SCC) string {
					if scc.Members[0] == target {
						return other
					}
					return ""
				}
			}
			ctx := configContext(cfg)
			pa := derived.Fingerprint(fpFormat, ctx, salt(""), nil)
			pb := derived.Fingerprint(fpFormat, ctx, salt("other"), nil)
			if want := fresh.Fingerprint(fpFormat, ctx, salt("other"), nil); !reflect.DeepEqual(pb.Fingerprints, want.Fingerprints) {
				t.Fatal("salted fingerprints differ from a fresh plan's")
			}
			reach := 0
			for i := range pb.Fingerprints {
				if pb.Fingerprints[i] != pa.Fingerprints[i] {
					reach++
				}
			}
			if reach == 0 || pb.Hashed != reach {
				t.Errorf("a changed salt hashed %d components, want the %d that reach it", pb.Hashed, reach)
			}
			if again := derived.Fingerprint(fpFormat, ctx, salt("other"), nil); again.Hashed != 0 {
				t.Errorf("repeating the salted plan hashed %d components", again.Hashed)
			}
			roots := []int{derived.PredSCC[tab.Func("p3_main", 0)]}
			part := derived.Fingerprint(fpFormat, configContext(cfg), nil, roots)
			for i, fp := range part.Fingerprints {
				if fp != "" && fp != dp.Fingerprints[i] {
					t.Fatalf("partial plan: component %d differs from the whole plan", i)
				}
			}
		})
	}
}
