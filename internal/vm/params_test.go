package vm

import (
	"fmt"
	"testing"

	"repro/internal/estelle/ast"
)

// TestParamWritesLeaveCallerSlice: the checker rejects writes to interaction
// parameters, but the executor does not rely on it. The test retargets the
// placeholder global pv at the transition's parameter v, as a checker that
// allowed such writes would resolve it; the body then assigns its own
// parameter, or passes it as a var argument. Execute and every branch of
// ExecuteForked must run on a copy and leave the caller's slice unchanged.
func TestParamWritesLeaveCallerSlice(t *testing.T) {
	prog := compileBody(t, `
var x, pv : integer;
procedure bump(var a : integer);
begin a := a + 1 end;
state S0;
initialize to S0 begin x := 0; pv := 0 end;
trans
  from S0 to S0 when P.m name assign: begin
    if x > 0 then x := 1;
    pv := pv + 1;
    x := pv
  end;
  from S0 to S0 when P.m name byref: begin
    bump(pv);
    x := pv
  end;
`)
	assignT, byrefT := prog.Trans[0], prog.Trans[1]
	retarget := func(ti int, ids ...ast.Expr) {
		for _, id := range ids {
			prog.Info.Uses[id.(*ast.Ident)] = prog.Trans[ti].ParamSyms[0]
		}
	}
	as := assignT.Decl.Body.Stmts
	inc := as[1].(*ast.AssignStmt)
	retarget(0, inc.LHS, inc.RHS.(*ast.BinaryExpr).X, as[2].(*ast.AssignStmt).RHS)
	bs := byrefT.Decl.Body.Stmts
	retarget(1, bs[0].(*ast.CallStmt).Args[0], bs[1].(*ast.AssignStmt).RHS)

	check := func(what string, params []Value, st *State) {
		t.Helper()
		if params[0].I != 3 {
			t.Errorf("%s: caller's parameter changed to %d", what, params[0].I)
		}
		if x := globalValue(t, prog, st, "x"); x.Undef || x.I != 4 {
			t.Errorf("%s: x = %v, want 4", what, x)
		}
	}

	e := New(prog)
	for _, ti := range prog.Trans {
		if !e.compiled().transition(ti).writesParams {
			t.Errorf("%s: writesParams = false", ti.Name)
		}
		st, _, err := e.RunInit()
		if err != nil {
			t.Fatal(err)
		}
		params := []Value{MakeInt(3)}
		if _, err := e.Execute(st, ti, params); err != nil {
			t.Fatalf("%s: %v", ti.Name, err)
		}
		check(ti.Name+" Execute", params, st)
	}

	// x starts undefined, so `if x > 0` forks: both branches must see v = 3.
	e.Partial = true
	params := []Value{MakeInt(3)}
	results, err := e.ExecuteForked(e.NewState(), assignT, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	for i, r := range results {
		check(fmt.Sprintf("ExecuteForked branch %d", i), params, r.State)
	}
}

// TestReadOnlyBodiesDoNotCopyParams: bodies that only read their parameters
// are marked so, and run on the caller's slice.
func TestReadOnlyBodiesDoNotCopyParams(t *testing.T) {
	prog := compileBody(t, `
var x : integer;
procedure take(a : integer);
begin x := a end;
state S0;
initialize to S0 begin x := 0 end;
trans
  from S0 to S0 when P.m name t: begin take(v); x := x + v; output P.r(v) end;
`)
	e := New(prog)
	if e.compiled().transition(prog.Trans[0]).writesParams {
		t.Fatal("writesParams = true for a body that only reads its parameter")
	}
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	params := []Value{MakeInt(2)}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.Execute(st, prog.Trans[0], params); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("%.0f allocations, want at most 2 (the output and its parameters)", allocs)
	}
}
