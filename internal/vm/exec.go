package vm

import (
	"fmt"
	"runtime/debug"

	"repro/internal/estelle/ast"
	"repro/internal/estelle/sema"
	"repro/internal/estelle/token"
	"repro/internal/estelle/types"
)

// Output is one interaction produced by an output statement during a
// transition block.
type Output struct {
	// IP is the flattened interaction-point instance id.
	IP     int
	Inter  *sema.Interaction
	Params []Value
}

// String renders the output as "IPNAME.inter(p1,p2)".
func (o Output) String() string { return o.Inter.Name }

// TransResult is one outcome of executing a transition. In partial-trace
// mode a single transition may yield several outcomes, one per feasible
// assignment of undefined branch conditions (the decision vector).
type TransResult struct {
	State     *State
	Outputs   []Output
	Decisions []bool
}

// Limits bound transition execution, protecting the analyzer from runaway
// loops in specifications.
type Limits struct {
	// MaxSteps bounds statements executed per transition (default 1e6).
	MaxSteps int
	// MaxCallDepth bounds function recursion (default 1000).
	MaxCallDepth int
	// MaxForks bounds decision-vector enumeration per transition in
	// partial-trace mode (default 64).
	MaxForks int
	// MaxHeapCells bounds live dynamic-memory cells per state, so a
	// specification allocating in a loop cannot run the analyzer out of
	// memory (default 1<<20).
	MaxHeapCells int
}

func (l Limits) withDefaults() Limits {
	if l.MaxSteps <= 0 {
		l.MaxSteps = 1_000_000
	}
	if l.MaxCallDepth <= 0 {
		l.MaxCallDepth = 1000
	}
	if l.MaxForks <= 0 {
		l.MaxForks = 64
	}
	if l.MaxHeapCells <= 0 {
		l.MaxHeapCells = 1 << 20
	}
	return l
}

// Exec executes transition blocks of one checked program against a State.
// An Exec is not safe for concurrent use; create one per analysis. Distinct
// Execs over one shared *sema.Program are safe to run concurrently: the
// program is read-only after semantic analysis, and all mutable execution
// state (the current State, call frames, output buffers, decision vectors)
// lives in the Exec and in the States it creates, which never alias across
// Execs. This is the VM half of the compile-once/analyze-many contract that
// the batch engine relies on; a -race test in this package enforces it.
type Exec struct {
	Prog *sema.Program
	// Partial enables §5 partial-trace semantics: undefined values
	// propagate, undefined provided-clauses are true, and undefined branch
	// conditions fork execution.
	Partial bool
	Limits  Limits

	// PreTransition, when non-nil, runs at the start of every transition
	// body execution with the transition's name. Fault-injection harnesses
	// use it to simulate VM crashes; a panic it raises is contained like any
	// other execution fault.
	PreTransition func(name string)

	state       *State
	frames      []*frame
	interParams []Value
	outputs     []Output
	steps       int

	decisions []bool
	decUsed   int
}

type frame struct {
	fn    *sema.FuncSym
	slots []Value
	refs  []*Value
}

// RuntimeError is an execution error inside a transition block (nil
// dereference, range violation, step budget exceeded, ...). The analyzer
// reports it as a specification/trace problem rather than an invalid trace.
type RuntimeError struct {
	Pos token.Pos
	Msg string
}

func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

func rte(pos token.Pos, format string, args ...any) error {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// FaultError is a contained panic from transition execution: a fault the
// interpreter itself did not anticipate (as opposed to a RuntimeError, which
// is a diagnosed specification-level error). The analyzer treats the faulted
// transition as an infeasible branch and records the fault in its diagnosis,
// so one broken candidate cannot crash a whole analysis.
type FaultError struct {
	// Op names what was executing ("transition t_dt", "provided clause of
	// t_cr", ...).
	Op    string
	Panic any
	// Stack is the goroutine stack captured at the recover point.
	Stack []byte
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("execution fault in %s: %v", e.Op, e.Panic)
}

// contain is deferred around VM entry points to convert an escaping panic
// into a *FaultError whose Op is what+name. The two parts are joined only
// when a panic is recovered: guards and transitions run millions of times per
// search, faults almost never. The executor's transient fields are left
// dirty, but begin() fully resets them on the next entry.
func contain(what, name string, err *error) {
	if r := recover(); r != nil {
		*err = &FaultError{Op: what + name, Panic: r, Stack: debug.Stack()}
	}
}

// Contained reports whether err is a per-transition execution failure
// (diagnosed runtime error or contained panic) that a search should treat as
// an infeasible branch rather than an analysis-level failure.
func Contained(err error) bool {
	switch err.(type) {
	case *RuntimeError, *FaultError:
		return true
	}
	return false
}

// New returns an executor for prog.
func New(prog *sema.Program) *Exec {
	return &Exec{Prog: prog, Limits: Limits{}.withDefaults()}
}

// NewState builds the pre-initialize state: every global starts undefined in
// partial mode, zero otherwise, with an empty heap.
func (e *Exec) NewState() *State {
	st := &State{FSM: e.Prog.InitTo, Heap: NewHeap()}
	st.Globals = make([]Value, len(e.Prog.GlobalVars))
	for i, v := range e.Prog.GlobalVars {
		st.Globals[i] = Zero(v.Type, e.Partial)
	}
	return st
}

// RunInit creates a fresh state and executes the initialize transition,
// returning the state and any outputs the initialize block produced.
func (e *Exec) RunInit() (st *State, outs []Output, err error) {
	defer contain("initialize transition", "", &err)
	st = e.NewState()
	e.begin(st, nil, nil)
	defer e.end()
	if e.Prog.Init != nil && e.Prog.Init.Body != nil {
		if err := e.execBlock(e.Prog.Init.Body); err != nil {
			return nil, nil, err
		}
	}
	return st, e.takeOutputs(), nil
}

// EvalProvided evaluates a transition's provided clause against st with the
// given interaction parameters bound. Undefined results are true in partial
// mode (§5.1). Provided clauses are required to be side-effect free; any
// function they call must not assign globals.
func (e *Exec) EvalProvided(st *State, ti *sema.TransInfo, params []Value) (ok bool, err error) {
	if ti.Provided == nil {
		return true, nil
	}
	defer contain("provided clause of ", ti.Name, &err)
	e.begin(st, params, nil)
	defer e.end()
	v, err := e.eval(ti.Provided)
	if err != nil {
		return false, err
	}
	if v.Undef {
		return e.Partial, nil
	}
	return v.Bool(), nil
}

// Execute runs transition ti against st in place (the paper's Update
// operation), binding params as the consumed interaction's parameters, and
// returns the outputs the block produced. The caller must snapshot st first
// if it needs to backtrack. Execute must not be used in partial mode when the
// block may fork; use ExecuteForked there.
func (e *Exec) Execute(st *State, ti *sema.TransInfo, params []Value) (outs []Output, err error) {
	defer contain("transition ", ti.Name, &err)
	e.begin(st, params, nil)
	defer e.end()
	if e.PreTransition != nil {
		e.PreTransition(ti.Name)
	}
	if ti.Decl.Body != nil {
		if err := e.execBlock(ti.Decl.Body); err != nil {
			return nil, err
		}
	}
	if ti.To >= 0 {
		st.FSM = ti.To
	}
	return e.takeOutputs(), nil
}

// ExecuteForked runs ti against snapshots of st, enumerating every feasible
// assignment of undefined branch conditions up to Limits.MaxForks. In normal
// (non-partial) mode it returns exactly one result. Branches that hit runtime
// errors are dropped; if every branch errors, the first error is returned.
func (e *Exec) ExecuteForked(st *State, ti *sema.TransInfo, params []Value) ([]TransResult, error) {
	queue := [][]bool{nil}
	var results []TransResult
	var firstErr error
	runs := 0
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		runs++
		if runs > e.Limits.MaxForks {
			return nil, rte(ti.Decl.Pos(), "transition %s: partial-trace decision budget exceeded (%d forks)",
				ti.Name, e.Limits.MaxForks)
		}
		snap := st.Snapshot()
		// Each decision vector executes behind its own panic barrier so a
		// fault on one branch leaves the siblings explorable.
		outs, used, err := func() (outs []Output, used int, err error) {
			defer contain("transition ", ti.Name, &err)
			e.begin(snap, params, d)
			defer e.end()
			if e.PreTransition != nil {
				e.PreTransition(ti.Name)
			}
			if ti.Decl.Body != nil {
				if err := e.execBlock(ti.Decl.Body); err != nil {
					return nil, e.decUsed, err
				}
			}
			return e.takeOutputs(), e.decUsed, nil
		}()
		// Enqueue the sibling branches discovered during this run: defaults
		// beyond the provided vector were false, so each position between
		// len(d) and used has an unexplored true-branch.
		for j := len(d); j < used; j++ {
			alt := make([]bool, j+1)
			copy(alt, d)
			// positions len(d)..j-1 stay false (the defaults taken), j is true
			alt[j] = true
			queue = append(queue, alt)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ti.To >= 0 {
			snap.FSM = ti.To
		}
		full := make([]bool, used)
		copy(full, d)
		results = append(results, TransResult{State: snap, Outputs: outs, Decisions: full})
	}
	if len(results) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

func (e *Exec) begin(st *State, params []Value, decisions []bool) {
	e.state = st
	e.interParams = params
	e.outputs = nil
	e.steps = 0
	e.frames = e.frames[:0]
	e.decisions = decisions
	e.decUsed = 0
}

func (e *Exec) end() {
	e.state = nil
	e.interParams = nil
	e.outputs = nil
}

func (e *Exec) takeOutputs() []Output {
	out := e.outputs
	e.outputs = nil
	return out
}

// decide consumes the next branch decision in partial mode.
func (e *Exec) decide() bool {
	var b bool
	if e.decUsed < len(e.decisions) {
		b = e.decisions[e.decUsed]
	}
	e.decUsed++
	return b
}

func (e *Exec) top() *frame {
	if len(e.frames) == 0 {
		return nil
	}
	return e.frames[len(e.frames)-1]
}

// ---------------------------------------------------------------------------
// Statements

func (e *Exec) step(pos token.Pos) error {
	e.steps++
	if e.steps > e.Limits.MaxSteps {
		return rte(pos, "statement budget exceeded (%d); possible non-terminating loop", e.Limits.MaxSteps)
	}
	return nil
}

func (e *Exec) execBlock(b *ast.Block) error {
	for _, s := range b.Stmts {
		if err := e.execStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (e *Exec) execStmt(s ast.Stmt) error {
	if err := e.step(s.Pos()); err != nil {
		return err
	}
	switch s := s.(type) {
	case *ast.Block:
		return e.execBlock(s)
	case *ast.EmptyStmt:
		return nil
	case *ast.AssignStmt:
		v, err := e.eval(s.RHS)
		if err != nil {
			return err
		}
		lv, err := e.lvalue(s.LHS)
		if err != nil {
			return err
		}
		return e.assign(lv, v, s.Pos())
	case *ast.IfStmt:
		b, err := e.evalCond(s.Cond)
		if err != nil {
			return err
		}
		if b {
			return e.execStmt(s.Then)
		}
		if s.Else != nil {
			return e.execStmt(s.Else)
		}
		return nil
	case *ast.WhileStmt:
		for {
			b, err := e.evalCond(s.Cond)
			if err != nil {
				return err
			}
			if !b {
				return nil
			}
			if err := e.execStmt(s.Body); err != nil {
				return err
			}
			if err := e.step(s.Pos()); err != nil {
				return err
			}
		}
	case *ast.RepeatStmt:
		for {
			for _, st := range s.Body {
				if err := e.execStmt(st); err != nil {
					return err
				}
			}
			b, err := e.evalCond(s.Cond)
			if err != nil {
				return err
			}
			if b {
				return nil
			}
			if err := e.step(s.Pos()); err != nil {
				return err
			}
		}
	case *ast.ForStmt:
		return e.execFor(s)
	case *ast.CaseStmt:
		return e.execCase(s)
	case *ast.OutputStmt:
		return e.execOutput(s)
	case *ast.CallStmt:
		if b, ok := e.Prog.Info.Builtins[ast.Node(s)]; ok {
			return e.execBuiltinStmt(s, b)
		}
		fs := e.Prog.Info.Calls[ast.Node(s)]
		if fs == nil {
			return rte(s.Pos(), "unresolved procedure %s", s.Name)
		}
		_, err := e.call(fs, s.Args, s.Pos())
		return err
	default:
		return rte(s.Pos(), "unsupported statement")
	}
}

func (e *Exec) execFor(s *ast.ForStmt) error {
	vs := e.Prog.Info.ForVars[s]
	if vs == nil {
		return rte(s.Pos(), "unresolved for-loop variable %s", s.Var)
	}
	from, err := e.eval(s.From)
	if err != nil {
		return err
	}
	to, err := e.eval(s.To)
	if err != nil {
		return err
	}
	if from.Undef || to.Undef {
		return rte(s.Pos(), "for-loop bound is undefined")
	}
	lv, err := e.varLocation(vs, s.Pos())
	if err != nil {
		return err
	}
	i := from.I
	for {
		if s.Down && i < to.I || !s.Down && i > to.I {
			return nil
		}
		if err := e.assign(lv, MakeOrdinal(vs.Type.Root(), i), s.Pos()); err != nil {
			return err
		}
		if err := e.execStmt(s.Body); err != nil {
			return err
		}
		if err := e.step(s.Pos()); err != nil {
			return err
		}
		if s.Down {
			i--
		} else {
			i++
		}
	}
}

func (e *Exec) execCase(s *ast.CaseStmt) error {
	sel, err := e.eval(s.Expr)
	if err != nil {
		return err
	}
	if sel.Undef {
		// Partial mode: fork over the arms with one binary decision each
		// (§5.3); the first arm whose decision is true executes.
		if !e.Partial {
			return rte(s.Pos(), "case selector is undefined")
		}
		for _, arm := range s.Arms {
			if e.decide() {
				return e.execStmt(arm.Body)
			}
		}
		for _, st := range s.Else {
			if err := e.execStmt(st); err != nil {
				return err
			}
		}
		return nil
	}
	for _, arm := range s.Arms {
		for _, lab := range arm.Labels {
			lv, err := e.eval(lab)
			if err != nil {
				return err
			}
			if !lv.Undef && lv.I == sel.I {
				return e.execStmt(arm.Body)
			}
		}
	}
	for _, st := range s.Else {
		if err := e.execStmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (e *Exec) execOutput(s *ast.OutputStmt) error {
	group := e.Prog.Info.OutputGroup[s]
	inter := e.Prog.Info.OutputInter[s]
	if group == nil || inter == nil {
		return rte(s.Pos(), "unresolved output statement")
	}
	ip := group.Base
	if len(group.Dims) > 0 {
		ix, ok := s.IP.(*ast.IndexExpr)
		if !ok {
			return rte(s.Pos(), "output to ip array %s without index", group.Name)
		}
		vals := make([]int64, len(ix.Indexes))
		for i, ie := range ix.Indexes {
			v, err := e.eval(ie)
			if err != nil {
				return err
			}
			if v.Undef {
				// §5.4: an undefined interaction-point index cannot be
				// resolved; this is one of the cases that makes partial
				// trace analysis of demultiplexers impossible.
				return rte(ie.Pos(), "output ip index is undefined")
			}
			vals[i] = v.I
		}
		off := group.FlatIndex(vals)
		if off < 0 {
			return rte(s.Pos(), "output ip index out of range for %s", group.Name)
		}
		ip = group.Base + off
	}
	params := make([]Value, len(s.Args))
	for i, a := range s.Args {
		v, err := e.eval(a)
		if err != nil {
			return err
		}
		cv, err := e.coerce(inter.Params[i].Type, v, a.Pos())
		if err != nil {
			return err
		}
		params[i] = cv.Copy()
	}
	e.outputs = append(e.outputs, Output{IP: ip, Inter: inter, Params: params})
	return nil
}

func (e *Exec) execBuiltinStmt(s *ast.CallStmt, b sema.Builtin) error {
	switch b {
	case sema.BuiltinNew:
		lv, err := e.lvalue(s.Args[0])
		if err != nil {
			return err
		}
		if lv.T.Kind != types.Pointer || lv.T.Elem == nil {
			return rte(s.Pos(), "new on non-pointer")
		}
		if max := e.Limits.MaxHeapCells; max > 0 && e.state.Heap.Len() >= max {
			return rte(s.Pos(), "heap budget exceeded (%d live cells); possible allocation loop", max)
		}
		lv.I = e.state.Heap.Alloc(lv.T.Elem, e.Partial)
		lv.Undef = false
		return nil
	case sema.BuiltinDispose:
		lv, err := e.lvalue(s.Args[0])
		if err != nil {
			return err
		}
		if lv.Undef {
			return rte(s.Pos(), "dispose of undefined pointer")
		}
		if err := e.state.Heap.Dispose(lv.I); err != nil {
			return rte(s.Pos(), "%v", err)
		}
		lv.I = 0
		return nil
	default:
		return rte(s.Pos(), "builtin %s cannot be used as a statement", s.Name)
	}
}

// ---------------------------------------------------------------------------
// L-values and assignment

func (e *Exec) varLocation(vs *sema.VarSym, pos token.Pos) (*Value, error) {
	switch vs.Kind {
	case sema.GlobalVar:
		return &e.state.Globals[vs.Slot], nil
	case sema.LocalVar, sema.ResultVar:
		fr := e.top()
		if fr == nil {
			return nil, rte(pos, "local variable %s outside a function", vs.Name)
		}
		return &fr.slots[vs.Slot], nil
	case sema.RefParam:
		fr := e.top()
		if fr == nil || fr.refs[vs.Slot] == nil {
			return nil, rte(pos, "unbound var-parameter %s", vs.Name)
		}
		return fr.refs[vs.Slot], nil
	case sema.InterParamVar:
		if vs.Slot >= len(e.interParams) {
			return nil, rte(pos, "interaction parameter %s not bound", vs.Name)
		}
		return &e.interParams[vs.Slot], nil
	default:
		return nil, rte(pos, "cannot locate variable %s", vs.Name)
	}
}

func (e *Exec) lvalue(x ast.Expr) (*Value, error) {
	switch x := x.(type) {
	case *ast.Ident:
		sym := e.Prog.Info.Uses[x]
		vs, ok := sym.(*sema.VarSym)
		if !ok {
			return nil, rte(x.Pos(), "%s is not assignable", x.Name)
		}
		return e.varLocation(vs, x.Pos())
	case *ast.IndexExpr:
		base, err := e.lvalue(x.X)
		if err != nil {
			return nil, err
		}
		off, err := e.flatIndex(base.T, x)
		if err != nil {
			return nil, err
		}
		return &base.Elems[off], nil
	case *ast.SelectorExpr:
		base, err := e.lvalue(x.X)
		if err != nil {
			return nil, err
		}
		i := base.T.Root().FieldIndex(x.Field)
		if i < 0 {
			return nil, rte(x.Pos(), "no field %s", x.Field)
		}
		return &base.Elems[i], nil
	case *ast.DerefExpr:
		pv, err := e.eval(x.X)
		if err != nil {
			return nil, err
		}
		if pv.Undef {
			return nil, rte(x.Pos(), "dereference of undefined pointer")
		}
		cell, err := e.state.Heap.Get(pv.I)
		if err != nil {
			return nil, rte(x.Pos(), "%v", err)
		}
		return cell, nil
	default:
		return nil, rte(x.Pos(), "expression is not assignable")
	}
}

// flatIndex computes the flattened element offset for an index expression
// over an array-typed base.
func (e *Exec) flatIndex(at *types.Type, x *ast.IndexExpr) (int, error) {
	at = at.Root()
	if at.Kind != types.Array {
		return 0, rte(x.Pos(), "indexing non-array")
	}
	off := 0
	for d, ie := range x.Indexes {
		v, err := e.eval(ie)
		if err != nil {
			return 0, err
		}
		if v.Undef {
			return 0, rte(ie.Pos(), "array index is undefined")
		}
		lo, hi := at.Indexes[d].OrdinalRange()
		if v.I < lo || v.I > hi {
			return 0, rte(ie.Pos(), "array index %d out of range %d..%d", v.I, lo, hi)
		}
		off = off*int(hi-lo+1) + int(v.I-lo)
	}
	return off, nil
}

// coerce adapts v to location type dst, performing Pascal range checks.
func (e *Exec) coerce(dst *types.Type, v Value, pos token.Pos) (Value, error) {
	if v.Undef {
		return Zero(dst, true), nil
	}
	if dst.IsOrdinal() {
		lo, hi := dst.OrdinalRange()
		if v.I < lo || v.I > hi {
			return Value{}, rte(pos, "value %d out of range %d..%d", v.I, lo, hi)
		}
	}
	out := v
	out.T = dst
	return out, nil
}

func (e *Exec) assign(lv *Value, v Value, pos token.Pos) error {
	cv, err := e.coerce(lv.T, v, pos)
	if err != nil {
		return err
	}
	cv = cv.Copy()
	cv.T = lv.T
	*lv = cv
	return nil
}

// ---------------------------------------------------------------------------
// Expressions

// evalCond evaluates a statement condition; undefined conditions fork in
// partial mode (§5.3) and are errors otherwise.
func (e *Exec) evalCond(x ast.Expr) (bool, error) {
	v, err := e.eval(x)
	if err != nil {
		return false, err
	}
	if v.Undef {
		if !e.Partial {
			return false, rte(x.Pos(), "condition is undefined")
		}
		return e.decide(), nil
	}
	return v.Bool(), nil
}

func (e *Exec) eval(x ast.Expr) (Value, error) {
	switch x := x.(type) {
	case *ast.IntLit:
		return MakeInt(x.Value), nil
	case *ast.BoolLit:
		return MakeBool(x.Value), nil
	case *ast.CharLit:
		return MakeOrdinal(types.Chr, int64(x.Value)), nil
	case *ast.Ident:
		sym := e.Prog.Info.Uses[x]
		switch sym := sym.(type) {
		case *sema.VarSym:
			lv, err := e.varLocation(sym, x.Pos())
			if err != nil {
				return Value{}, err
			}
			return *lv, nil
		case *sema.ConstSym:
			if sema.NilConst(sym) {
				return Value{T: sym.Type}, nil
			}
			return MakeOrdinal(sym.Type, sym.Val), nil
		case *sema.FuncSym:
			return e.call(sym, nil, x.Pos())
		default:
			return Value{}, rte(x.Pos(), "unresolved identifier %s", x.Name)
		}
	case *ast.UnaryExpr:
		v, err := e.eval(x.X)
		if err != nil {
			return Value{}, err
		}
		if v.Undef {
			return UndefValue(v.T), nil
		}
		switch x.Op {
		case token.NOT:
			return MakeBool(!v.Bool()), nil
		case token.MINUS:
			return MakeInt(-v.I), nil
		default:
			return MakeInt(v.I), nil
		}
	case *ast.BinaryExpr:
		return e.evalBinary(x)
	case *ast.IndexExpr:
		base, err := e.eval(x.X)
		if err != nil {
			return Value{}, err
		}
		if base.Undef {
			t := e.Prog.Info.Types[ast.Expr(x)]
			return UndefValue(t), nil
		}
		off, err := e.flatIndex(base.T, x)
		if err != nil {
			return Value{}, err
		}
		return base.Elems[off], nil
	case *ast.SelectorExpr:
		base, err := e.eval(x.X)
		if err != nil {
			return Value{}, err
		}
		i := base.T.Root().FieldIndex(x.Field)
		if i < 0 {
			return Value{}, rte(x.Pos(), "no field %s", x.Field)
		}
		if base.Undef {
			return UndefValue(base.T.Root().Fields[i].Type), nil
		}
		return base.Elems[i], nil
	case *ast.DerefExpr:
		// Read-only dereference: Load avoids the copy-on-write unsharing
		// that the assignable path (lvalue) performs via Heap.Get, so pure
		// reads never force a cell copy after a snapshot.
		pv, err := e.eval(x.X)
		if err != nil {
			return Value{}, err
		}
		if pv.Undef {
			return Value{}, rte(x.Pos(), "dereference of undefined pointer")
		}
		cv, err := e.state.Heap.Load(pv.I)
		if err != nil {
			return Value{}, rte(x.Pos(), "%v", err)
		}
		return *cv, nil
	case *ast.CallExpr:
		if b, ok := e.Prog.Info.Builtins[ast.Node(x)]; ok {
			return e.evalBuiltin(x, b)
		}
		fs := e.Prog.Info.Calls[ast.Node(x)]
		if fs == nil {
			return Value{}, rte(x.Pos(), "unresolved function %s", x.Name)
		}
		return e.call(fs, x.Args, x.Pos())
	case *ast.SetLit:
		return e.evalSetLit(x)
	default:
		return Value{}, rte(x.Pos(), "unsupported expression")
	}
}

func (e *Exec) evalSetLit(x *ast.SetLit) (Value, error) {
	t := e.Prog.Info.Types[ast.Expr(x)]
	if t == nil || t.Kind != types.Set {
		return Value{}, rte(x.Pos(), "unresolved set literal")
	}
	// Canonical representation: elements must be non-negative ordinals below
	// the set-universe bound.
	const setLimit = 4096
	v := Value{T: t}
	for _, se := range x.Elems {
		loV, err := e.eval(se.Lo)
		if err != nil {
			return Value{}, err
		}
		hiV := loV
		if se.Hi != nil {
			hiV, err = e.eval(se.Hi)
			if err != nil {
				return Value{}, err
			}
		}
		if loV.Undef || hiV.Undef {
			return UndefValue(t), nil
		}
		if loV.I < 0 || hiV.I >= setLimit {
			return Value{}, rte(x.Pos(), "set element out of range 0..%d", setLimit-1)
		}
		for i := loV.I; i <= hiV.I; i++ {
			v.setAdd(i, setLimit)
		}
	}
	return v, nil
}

func (e *Exec) evalBinary(x *ast.BinaryExpr) (Value, error) {
	// and/or use Kleene logic so that `defined-false and undefined` is a
	// defined false; evaluate left first.
	if x.Op == token.AND || x.Op == token.OR {
		a, err := e.eval(x.X)
		if err != nil {
			return Value{}, err
		}
		if !a.Undef {
			if x.Op == token.AND && !a.Bool() {
				return MakeBool(false), nil
			}
			if x.Op == token.OR && a.Bool() {
				return MakeBool(true), nil
			}
		}
		b, err := e.eval(x.Y)
		if err != nil {
			return Value{}, err
		}
		if !b.Undef {
			if x.Op == token.AND && !b.Bool() {
				return MakeBool(false), nil
			}
			if x.Op == token.OR && b.Bool() {
				return MakeBool(true), nil
			}
		}
		if a.Undef || b.Undef {
			return UndefValue(types.Bool), nil
		}
		if x.Op == token.AND {
			return MakeBool(a.Bool() && b.Bool()), nil
		}
		return MakeBool(a.Bool() || b.Bool()), nil
	}

	a, err := e.eval(x.X)
	if err != nil {
		return Value{}, err
	}
	b, err := e.eval(x.Y)
	if err != nil {
		return Value{}, err
	}
	resT := e.Prog.Info.Types[ast.Expr(x)]
	if a.Undef || b.Undef {
		if resT == nil {
			resT = types.Bool
		}
		return UndefValue(resT), nil
	}
	switch x.Op {
	case token.PLUS, token.MINUS, token.STAR:
		if a.T.Root().Kind == types.Set {
			return e.setOp(x.Op, a, b)
		}
		switch x.Op {
		case token.PLUS:
			return MakeInt(a.I + b.I), nil
		case token.MINUS:
			return MakeInt(a.I - b.I), nil
		default:
			return MakeInt(a.I * b.I), nil
		}
	case token.DIV:
		if b.I == 0 {
			return Value{}, rte(x.Pos(), "division by zero")
		}
		return MakeInt(a.I / b.I), nil
	case token.MOD:
		if b.I == 0 {
			return Value{}, rte(x.Pos(), "division by zero")
		}
		m := a.I % b.I
		if m < 0 {
			m += abs64(b.I)
		}
		return MakeInt(m), nil
	case token.EQ:
		return MakeBool(Equal(a, b)), nil
	case token.NEQ:
		return MakeBool(!Equal(a, b)), nil
	case token.LT:
		return MakeBool(a.I < b.I), nil
	case token.LEQ:
		return MakeBool(a.I <= b.I), nil
	case token.GT:
		return MakeBool(a.I > b.I), nil
	case token.GEQ:
		return MakeBool(a.I >= b.I), nil
	case token.IN:
		return MakeBool(b.setHas(a.I)), nil
	default:
		return Value{}, rte(x.Pos(), "unsupported operator %s", x.Op)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func (e *Exec) setOp(op token.Kind, a, b Value) (Value, error) {
	n := len(a.Words)
	if len(b.Words) > n {
		n = len(b.Words)
	}
	out := Value{T: a.T, Words: make([]uint64, n)}
	word := func(v Value, i int) uint64 {
		if i < len(v.Words) {
			return v.Words[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		switch op {
		case token.PLUS:
			out.Words[i] = word(a, i) | word(b, i)
		case token.MINUS:
			out.Words[i] = word(a, i) &^ word(b, i)
		case token.STAR:
			out.Words[i] = word(a, i) & word(b, i)
		}
	}
	return out, nil
}

func (e *Exec) evalBuiltin(x *ast.CallExpr, b sema.Builtin) (Value, error) {
	v, err := e.eval(x.Args[0])
	if err != nil {
		return Value{}, err
	}
	if v.Undef {
		t := e.Prog.Info.Types[ast.Expr(x)]
		if t == nil {
			t = types.Int
		}
		return UndefValue(t), nil
	}
	switch b {
	case sema.BuiltinOrd:
		return MakeInt(v.I), nil
	case sema.BuiltinChr:
		if v.I < 0 || v.I > 255 {
			return Value{}, rte(x.Pos(), "chr argument %d out of range", v.I)
		}
		return MakeOrdinal(types.Chr, v.I), nil
	case sema.BuiltinSucc, sema.BuiltinPred:
		d := int64(1)
		if b == sema.BuiltinPred {
			d = -1
		}
		lo, hi := v.T.OrdinalRange()
		n := v.I + d
		if n < lo || n > hi {
			return Value{}, rte(x.Pos(), "succ/pred result %d out of range %d..%d", n, lo, hi)
		}
		return MakeOrdinal(v.T, n), nil
	case sema.BuiltinAbs:
		return MakeInt(abs64(v.I)), nil
	case sema.BuiltinOdd:
		return MakeBool(v.I%2 != 0), nil
	default:
		return Value{}, rte(x.Pos(), "unsupported builtin")
	}
}

// call invokes a user function/procedure.
func (e *Exec) call(fs *sema.FuncSym, args []ast.Expr, pos token.Pos) (Value, error) {
	if len(e.frames) >= e.Limits.MaxCallDepth {
		return Value{}, rte(pos, "call depth limit exceeded in %s", fs.Name)
	}
	fr := &frame{
		fn:    fs,
		slots: make([]Value, fs.NumSlots),
		refs:  make([]*Value, fs.NumSlots),
	}
	for i, p := range fs.Params {
		if i >= len(args) {
			return Value{}, rte(pos, "%s: missing argument %d", fs.Name, i+1)
		}
		if p.Kind == sema.RefParam {
			lv, err := e.lvalue(args[i])
			if err != nil {
				return Value{}, err
			}
			fr.refs[p.Slot] = lv
			continue
		}
		v, err := e.eval(args[i])
		if err != nil {
			return Value{}, err
		}
		cv, err := e.coerce(p.Type, v, args[i].Pos())
		if err != nil {
			return Value{}, err
		}
		fr.slots[p.Slot] = cv.Copy()
	}
	for _, l := range fs.Locals {
		fr.slots[l.Slot] = Zero(l.Type, e.Partial)
	}
	if fs.Result != nil {
		fr.slots[fs.ResultSlot] = Zero(fs.Result, true)
	}
	e.frames = append(e.frames, fr)
	err := e.execBlock(fs.Decl.Body)
	e.frames = e.frames[:len(e.frames)-1]
	if err != nil {
		return Value{}, err
	}
	if fs.Result != nil {
		return fr.slots[fs.ResultSlot], nil
	}
	return Value{T: types.Int}, nil
}
