package efsm_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/efsm"
	"repro/internal/estelle/ast"
	"repro/internal/estelle/sema"
	"repro/internal/experiments"
	"repro/internal/vm"
	"repro/specs"
)

// TestCandidateIndex checks the candidate index against a full scan for
// every (state, IP, interaction) of the zoo specs and an inflated LAPD, with
// parameter vectors built from the guards' constants, from values next to
// them that no guard names, and from undefined values:
//
//   - Candidates is an order-preserving subsequence of When filtered by
//     interaction;
//   - every transition it omits has a guard that evaluates to a defined
//     false with no error, in normal and in partial-trace mode.
func TestCandidateIndex(t *testing.T) {
	srcs := specs.All()
	inflated, err := experiments.InflateLAPD(50)
	if err != nil {
		t.Fatal(err)
	}
	srcs["lapd+50"] = inflated
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec, err := efsm.Compile(name, srcs[name])
			if err != nil {
				t.Fatal(err)
			}
			omitted := checkCandidateIndex(t, spec)
			t.Logf("%d omitted guard evaluations", omitted)
			if name == "lapd+50" && omitted == 0 {
				t.Error("the index omitted no guard on the inflated LAPD")
			}
		})
	}
}

// checkCandidateIndex runs the property over one spec and returns how many
// (transition, parameter vector) pairs the index omitted.
func checkCandidateIndex(t *testing.T, spec *efsm.Spec) int {
	prog := spec.Prog
	consts := guardConstants(prog)
	plain := vm.New(prog)
	plainSt, _, err := plain.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	// Partial-trace mode with every global undefined: a guard that could
	// reach an undefined operand would come out true here, not false.
	partial := vm.New(prog)
	partial.Partial = true
	partialSt := partial.NewState()

	rng := rand.New(rand.NewSource(1))
	omitted := 0
	for state := 0; state < spec.NumStates(); state++ {
		for ip := 0; ip < spec.NumIPs(); ip++ {
			for _, inter := range sortedInteractions(prog.IPs[ip].Group.Channel) {
				var want []*sema.TransInfo
				for _, ti := range spec.When(state, ip) {
					if ti.WhenInter == inter {
						want = append(want, ti)
					}
				}
				for _, params := range paramVectors(inter, consts, rng) {
					cs := spec.Candidates(state, ip, inter, params)
					var got []*sema.TransInfo
					for ti := cs.Next(); ti != nil; ti = cs.Next() {
						got = append(got, ti)
					}
					kept := make(map[*sema.TransInfo]bool, len(got))
					j := 0
					for _, ti := range want {
						if j < len(got) && got[j] == ti {
							kept[ti] = true
							j++
						}
					}
					if j != len(got) {
						t.Fatalf("state %s ip %s %s%v: candidates %v are not a subsequence of %v",
							spec.StateName(state), spec.IPName(ip), inter.Name, params, transNames(got), transNames(want))
					}
					for _, ti := range want {
						if kept[ti] {
							continue
						}
						omitted++
						for _, run := range []struct {
							e  *vm.Exec
							st *vm.State
						}{{plain, plainSt}, {partial, partialSt}} {
							ok, err := run.e.EvalProvided(run.st, ti, params)
							if ok || err != nil {
								t.Fatalf("state %s ip %s %s%v: index omitted %s, whose guard gives ok=%v err=%v (partial=%v)",
									spec.StateName(state), spec.IPName(ip), inter.Name, params, ti.Name, ok, err, run.e.Partial)
							}
						}
					}
				}
			}
		}
	}
	return omitted
}

// paramVectors builds the parameter vectors probed for one interaction: all
// undefined; each slot alone set to each candidate value, with the other
// slots undefined and then defined; and random mixtures.
func paramVectors(inter *sema.Interaction, consts []int64, rng *rand.Rand) [][]vm.Value {
	n := len(inter.Params)
	values := make([][]vm.Value, n)
	for i, p := range inter.Params {
		lo, hi := p.Type.OrdinalRange()
		seen := map[int64]bool{}
		add := func(v int64) {
			if v >= lo && v <= hi && !seen[v] {
				seen[v] = true
				values[i] = append(values[i], vm.MakeOrdinal(p.Type, v))
			}
		}
		add(lo)
		add(hi)
		for _, c := range consts {
			add(c)
			add(c + 1)
			add(c - 1)
		}
	}
	undef := func() []vm.Value {
		out := make([]vm.Value, n)
		for i, p := range inter.Params {
			out[i] = vm.UndefValue(p.Type)
		}
		return out
	}
	vecs := [][]vm.Value{undef()}
	for i := range inter.Params {
		for _, v := range values[i] {
			alone := undef()
			alone[i] = v
			vecs = append(vecs, alone)
			defined := make([]vm.Value, n)
			for k := range defined {
				defined[k] = values[k][0]
			}
			defined[i] = v
			vecs = append(vecs, defined)
		}
	}
	for r := 0; r < 50 && n > 0; r++ {
		mix := undef()
		for i := range mix {
			if k := rng.Intn(len(values[i]) + 1); k < len(values[i]) {
				mix[i] = values[i][k]
			}
		}
		vecs = append(vecs, mix)
	}
	return vecs
}

// guardConstants collects every ordinal constant written in a provided
// clause: the index keys are among them.
func guardConstants(prog *sema.Program) []int64 {
	seen := map[int64]bool{}
	var walk func(x ast.Expr)
	walk = func(x ast.Expr) {
		switch x := x.(type) {
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.IntLit:
			seen[x.Value] = true
		case *ast.CharLit:
			seen[int64(x.Value)] = true
		case *ast.BoolLit:
			seen[0], seen[1] = true, true
		case *ast.Ident:
			if c, ok := prog.Info.Uses[x].(*sema.ConstSym); ok && !sema.NilConst(c) {
				seen[c.Val] = true
			}
		}
	}
	for _, ti := range prog.Trans {
		if ti.Provided != nil {
			walk(ti.Provided)
		}
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedInteractions(ch *sema.Channel) []*sema.Interaction {
	names := make([]string, 0, len(ch.Interactions))
	for name := range ch.Interactions {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*sema.Interaction, len(names))
	for i, name := range names {
		out[i] = ch.Interactions[name]
	}
	return out
}

func transNames(list []*sema.TransInfo) []string {
	out := make([]string, len(list))
	for i, ti := range list {
		out[i] = ti.Name
	}
	return out
}
