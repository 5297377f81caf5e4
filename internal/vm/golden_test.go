package vm_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/efsm"
	"repro/internal/estelle/parser"
	"repro/internal/estelle/sema"
	"repro/internal/estelle/types"
	"repro/internal/gen"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/specs"
)

// goldenFile pins the executor's observable behaviour.
const goldenFile = "testdata/vm_golden.txt"

// TestVMGolden replays seeded implementation-generation walks over every zoo
// spec and a set of small feature and error programs, and compares a
// transcript of everything the executor exposes with a golden file: each
// step's State.Hash64 and fingerprint, the outputs, the ExecuteForked
// decision vectors, guard verdicts and error strings, in normal and in
// partial-trace mode. The oracle in internal/sim runs on this same executor,
// so it cannot catch a change in the executor's semantics; this file can.
//
// On a mismatch the actual transcript is written to a temporary file whose
// path the failure names, so an intended change can be reviewed with diff and
// copied over the golden file.
func TestVMGolden(t *testing.T) {
	var w strings.Builder
	srcs := specs.All()
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec, err := efsm.Compile(name, srcs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			goldenWalk(&w, name, spec, seed)
		}
	}
	for _, c := range goldenPrograms {
		goldenProgram(t, &w, c)
	}

	got := w.String()
	want, err := os.ReadFile(filepath.FromSlash(goldenFile))
	if err == nil && got == string(want) {
		return
	}
	f, ferr := os.CreateTemp("", "vm_golden-*.txt")
	if ferr != nil {
		t.Fatal(ferr)
	}
	f.WriteString(got)
	f.Close()
	if err != nil {
		t.Fatalf("%v; actual transcript written to %s", err, f.Name())
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("transcript diverges from %s at line %d:\n got: %s\nwant: %s\nactual transcript written to %s",
				goldenFile, i+1, g, w, f.Name())
		}
	}
}

// goldenInput is one environment input the walk can feed.
type goldenInput struct {
	ip    int
	inter *sema.Interaction
}

// goldenWalk drives a seeded generator walk in normal mode and replays every
// step it takes on two more executors: a normal-mode one through
// ExecuteForked on a snapshot of the pre-step state, and a partial-mode one
// whose state starts undefined and whose inputs lose parameter values at
// random.
func goldenWalk(w *strings.Builder, name string, spec *efsm.Spec, seed int64) {
	prog := spec.Prog
	fmt.Fprintf(w, "== walk %s seed=%d\n", name, seed)
	rng := rand.New(rand.NewSource(seed))
	inputs := goldenInputs(prog)

	g, err := gen.New(spec, gen.NewSeededScheduler(seed))
	if err != nil {
		fmt.Fprintf(w, "init error: %v\n", err)
		return
	}
	fmt.Fprintf(w, "init outs=%s\n", eventList(g.Trace().Events))
	writeState(w, "init", g.State())

	normal := vm.New(prog)
	partial := vm.New(prog)
	partial.Partial = true
	pst, pouts, err := partial.RunInit()
	if err != nil {
		fmt.Fprintf(w, "partial init error: %v\n", err)
		return
	}
	fmt.Fprintf(w, "partial init outs=%s\n", outputList(spec, pouts))
	writeState(w, "partial init", pst)

	for step := 0; step < 40; step++ {
		if len(inputs) > 0 && g.Pending() == 0 {
			// Prefer an input some transition of the current state
			// consumes, so the walk moves instead of queueing.
			pool := receivable(spec, g.State().FSM, inputs)
			if len(pool) == 0 {
				pool = inputs
			}
			in := pool[rng.Intn(len(pool))]
			params := goldenParams(rng, in.inter)
			if err := g.Feed(prog.IPs[in.ip].Name, in.inter.Name, params); err != nil {
				fmt.Fprintf(w, "feed error: %v\n", err)
			}
		}
		before := g.State().Snapshot()
		rec, err := g.Step()
		if err != nil {
			fmt.Fprintf(w, "step %d error: %v\n", step, err)
			return
		}
		if rec == nil {
			fmt.Fprintf(w, "step %d quiescent pending=%d\n", step, g.Pending())
			if g.Pending() > 0 {
				// The queued input is never consumed: start over.
				if g, err = gen.New(spec, gen.NewSeededScheduler(seed+int64(step))); err != nil {
					fmt.Fprintf(w, "init error: %v\n", err)
					return
				}
				writeState(w, "restart", g.State())
			}
			continue
		}
		var params []vm.Value
		ip := -1
		if rec.Consumed != nil {
			re, err := spec.ResolveEvent(*rec.Consumed)
			if err != nil {
				fmt.Fprintf(w, "resolve error: %v\n", err)
				return
			}
			params, ip = re.Params, re.IP
		}
		fmt.Fprintf(w, "step %d %s in=%s outs=%s\n", step, rec.Trans.Name, consumed(rec), eventList(rec.Outputs))
		writeState(w, "state", g.State())

		// The same step through the forked entry point, and every guard
		// the generator had to weigh for this input.
		cands := goldenCands(spec, before.FSM, ip, rec.Trans)
		writeGuards(w, "guards", normal, before, cands, params)
		results, err := normal.ExecuteForked(before, rec.Trans, params)
		writeResults(w, "forked", spec, results, err, false)

		pparams := make([]vm.Value, len(params))
		for i, p := range params {
			pparams[i] = p
			if rng.Intn(3) == 0 {
				pparams[i] = vm.UndefValue(p.T)
			}
		}
		writeGuards(w, "partial guards", partial, pst, goldenCands(spec, pst.FSM, ip, rec.Trans), pparams)
		results, err = partial.ExecuteForked(pst, rec.Trans, pparams)
		writeResults(w, "partial", spec, results, err, true)
		if len(results) > 0 {
			pst = results[rng.Intn(len(results))].State
		}
	}
}

// goldenInputs lists the environment inputs of prog in declaration order.
func goldenInputs(prog *sema.Program) []goldenInput {
	var out []goldenInput
	for _, ip := range prog.IPs {
		ch := ip.Group.Channel
		names := make([]string, 0, len(ch.Interactions))
		for n := range ch.Interactions {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			inter := ch.Interactions[n]
			if inter.ByRole[ip.Group.PeerRole] && goldenSynth(inter) {
				out = append(out, goldenInput{ip: ip.ID, inter: inter})
			}
		}
	}
	return out
}

func goldenSynth(inter *sema.Interaction) bool {
	for _, p := range inter.Params {
		switch p.Type.Root().Kind {
		case types.Integer, types.Boolean, types.Enum:
		default:
			return false
		}
	}
	return true
}

// receivable filters inputs to those a transition from state fsm consumes.
func receivable(spec *efsm.Spec, fsm int, inputs []goldenInput) []goldenInput {
	var out []goldenInput
	for _, in := range inputs {
		for _, ti := range spec.When(fsm, in.ip) {
			if ti.WhenInter == in.inter {
				out = append(out, in)
				break
			}
		}
	}
	return out
}

// goldenParams draws trace-text values, mostly small and in range.
func goldenParams(rng *rand.Rand, inter *sema.Interaction) map[string]string {
	out := make(map[string]string, len(inter.Params))
	for _, p := range inter.Params {
		lo, hi := p.Type.OrdinalRange()
		if lo < 0 {
			lo = 0
		}
		if hi > lo+15 {
			hi = lo + 15
		}
		v := lo + rng.Int63n(hi-lo+1)
		if p.Type.Root().Kind == types.Boolean {
			out[p.Name] = fmt.Sprint(v != 0)
		} else {
			out[p.Name] = fmt.Sprint(v)
		}
	}
	return out
}

// goldenCands returns the transitions competing with ti for the same input.
func goldenCands(spec *efsm.Spec, fsm, ip int, ti *sema.TransInfo) []*sema.TransInfo {
	if ip < 0 {
		return spec.Spontaneous(fsm)
	}
	var out []*sema.TransInfo
	for _, c := range spec.When(fsm, ip) {
		if c.WhenInter == ti.WhenInter {
			out = append(out, c)
		}
	}
	return out
}

func writeGuards(w *strings.Builder, label string, e *vm.Exec, st *vm.State, cands []*sema.TransInfo, params []vm.Value) {
	fmt.Fprintf(w, "%s:", label)
	for _, ti := range cands {
		ok, err := e.EvalProvided(st, ti, params)
		switch {
		case err != nil:
			fmt.Fprintf(w, " %s=error(%v)", ti.Name, err)
		default:
			fmt.Fprintf(w, " %s=%v", ti.Name, ok)
		}
	}
	w.WriteByte('\n')
}

func writeResults(w *strings.Builder, label string, spec *efsm.Spec, results []vm.TransResult, err error, fp bool) {
	if err != nil {
		fmt.Fprintf(w, "%s error: %v\n", label, err)
	}
	for i, r := range results {
		fmt.Fprintf(w, "%s #%d decisions=%s outs=%s\n", label, i, decisionString(r.Decisions), outputList(spec, r.Outputs))
		if fp {
			writeState(w, label+" state", r.State)
		} else {
			fmt.Fprintf(w, "%s state hash=%016x\n", label, r.State.Hash64())
		}
	}
}

func writeState(w *strings.Builder, label string, st *vm.State) {
	fmt.Fprintf(w, "%s hash=%016x fp=%s\n", label, st.Hash64(), st.Fingerprint())
}

func decisionString(d []bool) string {
	var sb strings.Builder
	for _, b := range d {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return "[" + sb.String() + "]"
}

func consumed(rec *gen.StepRecord) string {
	if rec.Consumed == nil {
		return "-"
	}
	return rec.Consumed.String()
}

func eventList(evs []trace.Event) string {
	parts := make([]string, len(evs))
	for i, ev := range evs {
		parts[i] = ev.String()
	}
	return "[" + strings.Join(parts, "; ") + "]"
}

func outputList(spec *efsm.Spec, outs []vm.Output) string {
	evs := make([]trace.Event, len(outs))
	for i, o := range outs {
		evs[i] = spec.EventFor(trace.Out, o.IP, o.Inter, o.Params)
	}
	return eventList(evs)
}

// goldenCase is a small program run transition by transition with the given
// integer parameters (nil stands for an undefined parameter), in normal and
// in partial-trace mode, under the given limits.
type goldenCase struct {
	name   string
	body   string
	params []*int64
	limits vm.Limits
	// panicTrans makes PreTransition panic, to pin fault texts.
	panicTrans bool
	// badParam passes an untyped parameter, which faults inside the guard.
	badParam bool
}

func iv(i int64) *int64 { return &i }

var goldenPrograms = []goldenCase{
	{name: "control-flow", params: []*int64{iv(3), nil, iv(-3)}, body: `
type color = (red, green, blue);
     palette = set of color;
var total, i, j : integer; c : color; pal : palette; hit : boolean;
    m : array [1..2, 1..3] of integer; ch : char;
state S0, S1;
initialize to S0 begin
  total := 0;
  for i := 1 to 10 do total := total + i;
  for i := 3 downto 1 do total := total - i;
  while total > 50 do total := total - 7;
  repeat total := total + 1 until total >= 50;
  if odd(total) then total := total * 2 else total := total + 100;
  case total mod 3 of
    0: total := total + 1000;
    1, 2: total := total + 2000
  end;
  for i := 1 to 2 do
    for j := 1 to 3 do
      m[i, j] := i * 10 + j;
  c := green;
  pal := [red, blue];
  hit := c in pal;
  pal := pal + [green] - [red];
  pal := pal * [green, blue];
  ch := chr(ord('A') + 1);
  c := pred(succ(red));
end;
trans
  from S0 to S1 when P.m provided (v > total) or (v <= 3) name t1: begin
    total := v mod 7 + abs(v);
    case v of
      1: c := red;
      3: c := blue
    else
      c := green
    end;
    if v in [1, 3 .. 5] then hit := not hit;
    if (pal = [green, blue]) and (c <> red) then output P.r(total);
    m[1, 2] := -v;
  end;
  from S1 to S0 when P.m name t2: begin
    while v > total do total := total + 5;
    output P.r(total)
  end;
`},
	{name: "calls-and-heap", params: []*int64{iv(4), nil, iv(1)}, body: `
type cp = ^cell;
     cell = record d : integer; next : cp end;
     pair = record a, b : integer end;
var head, cur : cp; sum, x, y, r : integer; pr, qr : pair;
    arr : array [0..3] of pair;
function fib(n : integer) : integer;
begin
  if n < 2 then fib := n
  else fib := fib(n - 1) + fib(n - 2)
end;
function total : integer;
var c : cp; s : integer;
begin
  s := 0; c := head;
  while c <> nil do begin s := s + c^.d; c := c^.next end;
  total := s
end;
procedure swap(var a : integer; var b : integer);
var tmp : integer;
begin
  tmp := a; a := b; b := tmp
end;
procedure push(v : integer);
var c : cp;
begin
  new(c);
  c^.d := v;
  c^.next := head;
  head := c
end;
procedure pop(var v : integer);
var c : cp;
begin
  v := head^.d; c := head; head := head^.next; dispose(c)
end;
procedure fill(var p : pair; n : integer);
begin
  p.a := n; p.b := fib(n)
end;
state S0;
initialize to S0 begin
  head := nil;
  push(1); push(2); push(3);
  sum := total;
  x := 1; y := 2;
  swap(x, y);
  fill(pr, 6);
  qr := pr;
  qr.a := 0;
  arr[2] := pr;
  swap(arr[2].a, arr[2].b);
end;
trans
  from S0 to S0 when P.m provided total > v name t1: begin
    push(v); push(fib(v));
    pop(r);
    swap(x, r);
    fill(arr[v mod 4], v);
    if (pr = qr) or (arr[2] <> pr) then sum := total else sum := -total;
    output P.r(sum)
  end;
  from S0 to S0 when P.m name t2: begin
    cur := head;
    while cur <> nil do begin
      cur^.d := cur^.d + v;
      cur := cur^.next
    end;
    sum := total
  end;
`},
	{name: "kleene-and-forks", params: []*int64{nil, iv(2), nil}, body: `
var a, b : boolean; x : integer; s : 0 .. 9;
state S0;
initialize to S0 begin a := false; b := true; x := 0; s := 0 end;
trans
  from S0 to S0 when P.m provided a and (v > 0) name t1: begin end;
  from S0 to S0 when P.m provided b or (v > 0) name t2: begin
    if v > 3 then x := 1 else x := 2;
    case v of
      1: s := 1;
      2: s := 2
    else
      s := 9
    end;
    if (v = x) or b then output P.r(x);
    if not (v <> x) and a then x := 7;
    s := x + 1
  end;
  from S0 to S0 when P.m provided v = 1 name t3: begin x := v end;
`},
	{name: "step-budget", params: []*int64{iv(0)}, limits: vm.Limits{MaxSteps: 10000}, body: `
var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans
  from S0 to S0 when P.m name spin: begin
    while true do x := x + 1;
  end;
`},
	{name: "fork-budget", params: []*int64{nil}, limits: vm.Limits{MaxForks: 8}, body: `
var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans
  from S0 to S0 when P.m name spin: begin
    while v > x do x := x + 0;
  end;
`},
	{name: "call-depth", params: []*int64{iv(0)}, limits: vm.Limits{MaxCallDepth: 100}, body: `
var r : integer;
function down(n : integer) : integer;
begin
  down := down(n + 1)
end;
state S0;
initialize to S0 begin r := 0 end;
trans
  from S0 to S0 when P.m name boom: begin r := down(0) end;
`},
	{name: "nil-deref", params: []*int64{iv(0)}, body: `
var pz : ^integer; x : integer;
state S0;
initialize to S0 begin pz := nil end;
trans
  from S0 to S0 when P.m name boom: begin x := pz^ end;
  from S0 to S0 when P.m name boom2: begin pz^ := 1 end;
  from S0 to S0 when P.m name boom3: begin dispose(pz) end;
`},
	{name: "dangling", params: []*int64{iv(0)}, body: `
var pz, q : ^integer; x : integer;
state S0;
initialize to S0 begin new(pz); q := pz; dispose(pz) end;
trans
  from S0 to S0 when P.m name boom: begin x := q^ end;
  from S0 to S0 when P.m name boom2: begin dispose(q) end;
`},
	{name: "heap-budget", params: []*int64{iv(1)}, limits: vm.Limits{MaxSteps: 100_000_000, MaxHeapCells: 1000}, body: `
type pint = ^integer;
var g : integer; q : pint;
state S0;
initialize to S0 begin g := 0 end;
trans
  from S0 to S0 when P.m name T1: begin
    while g = 0 do
      new(q);
  end;
`},
	{name: "range-errors", params: []*int64{iv(10), iv(4), iv(0), iv(-1)}, body: `
type color = (red, green, blue);
var s : 0 .. 9; a : array [1..3] of integer; c : color; ch : char;
state S0;
initialize to S0 begin s := 0; a[1] := 0; c := blue end;
trans
  from S0 to S0 when P.m name assign: begin s := v end;
  from S0 to S0 when P.m name index: begin a[v] := 1 end;
  from S0 to S0 when P.m name read: begin s := a[v] end;
  from S0 to S0 when P.m name succ: begin c := succ(c) end;
  from S0 to S0 when P.m name chr: begin ch := chr(v * 100) end;
  from S0 to S0 when P.m name out: begin output P.r(a[v]) end;
`},
	{name: "division", params: []*int64{iv(3), nil}, body: `
var x : integer;
state S0;
initialize to S0 begin x := 1 end;
trans
  from S0 to S0 when P.m name divz: begin x := x div (v - v) end;
  from S0 to S0 when P.m name modz: begin x := x mod (v - v) end;
  from S0 to S0 when P.m provided x div (v - v) = 0 name guardz: begin end;
`},
	{name: "undefined-errors", params: []*int64{nil}, body: `
var x, i : integer; a : array [1..3] of integer; pp : ^integer;
state S0;
initialize to S0 begin x := 1 end;
trans
  from S0 to S0 when P.m name undefcond: begin if v > 0 then x := 2 end;
  from S0 to S0 when P.m name undeffor: begin for i := 1 to v do x := x + 1 end;
  from S0 to S0 when P.m name undefindex: begin a[v] := 1 end;
  from S0 to S0 when P.m name undefptr: begin x := pp^ end;
  from S0 to S0 when P.m name undefcase: begin case v of 1: x := 3 end end;
`},
	{name: "faults", params: []*int64{iv(1)}, panicTrans: true, badParam: true, body: `
var g : integer;
state S0;
initialize to S0 begin g := 0 end;
trans from S0 to S0 when P.m provided v = 1 name T1: begin g := v end;
`},
}

// goldenProgram runs one case: for each mode, initialize, then for each
// parameter fire every transition on a snapshot through EvalProvided,
// Execute and ExecuteForked.
func goldenProgram(t *testing.T, w *strings.Builder, c goldenCase) {
	src := `specification s;
channel CH(a, b);
  by a: m(v : integer);
  by b: r(w : integer);
module M systemprocess;
  ip P : CH(b) individual queue;
end;
body B for M;
` + c.body + `
end;
end.`
	spec, err := parser.Parse(c.name+".estelle", src)
	if err != nil {
		t.Fatalf("%s: parse: %v", c.name, err)
	}
	prog, err := sema.Check(spec)
	if err != nil {
		t.Fatalf("%s: check: %v", c.name, err)
	}
	es := efsm.New(prog)
	for _, partial := range []bool{false, true} {
		fmt.Fprintf(w, "== program %s partial=%v\n", c.name, partial)
		e := vm.New(prog)
		e.Partial = partial
		if c.limits.MaxSteps > 0 {
			e.Limits.MaxSteps = c.limits.MaxSteps
		}
		if c.limits.MaxForks > 0 {
			e.Limits.MaxForks = c.limits.MaxForks
		}
		if c.limits.MaxCallDepth > 0 {
			e.Limits.MaxCallDepth = c.limits.MaxCallDepth
		}
		if c.limits.MaxHeapCells > 0 {
			e.Limits.MaxHeapCells = c.limits.MaxHeapCells
		}
		st, outs, err := e.RunInit()
		if err != nil {
			fmt.Fprintf(w, "init error: %v\n", err)
			continue
		}
		fmt.Fprintf(w, "init outs=%s\n", outputList(es, outs))
		writeState(w, "init", st)
		for _, p := range c.params {
			v := vm.UndefValue(types.Int)
			if p != nil {
				v = vm.MakeInt(*p)
			}
			params := []vm.Value{v}
			fmt.Fprintf(w, "-- v=%s\n", v)
			for _, ti := range prog.Trans {
				ok, err := e.EvalProvided(st, ti, params)
				fmt.Fprintf(w, "%s provided=%v err=%v\n", ti.Name, ok, err)
				results, err := e.ExecuteForked(st, ti, params)
				writeResults(w, ti.Name+" forked", es, results, err, true)
				if partial {
					continue
				}
				snap := st.Snapshot()
				outs, err := e.Execute(snap, ti, params)
				fmt.Fprintf(w, "%s execute outs=%s err=%v\n", ti.Name, outputList(es, outs), err)
				if err == nil {
					writeState(w, ti.Name+" execute", snap)
				}
			}
		}
		if c.badParam {
			_, err := e.EvalProvided(st, prog.Trans[0], []vm.Value{{}})
			fmt.Fprintf(w, "bad param: %v\n", faultText(err))
		}
		if c.panicTrans {
			e.PreTransition = func(string) { panic("boom") }
			_, err := e.Execute(st.Snapshot(), prog.Trans[0], []vm.Value{vm.MakeInt(1)})
			fmt.Fprintf(w, "panic execute: %v\n", faultText(err))
			_, err = e.ExecuteForked(st, prog.Trans[0], []vm.Value{vm.MakeInt(1)})
			fmt.Fprintf(w, "panic forked: %v\n", faultText(err))
		}
	}
}

// faultText renders an error with its type and, for faults, the Op.
func faultText(err error) string {
	if fe, ok := err.(*vm.FaultError); ok {
		return fmt.Sprintf("FaultError op=%q: %v", fe.Op, fe)
	}
	return fmt.Sprintf("%T: %v", err, err)
}
