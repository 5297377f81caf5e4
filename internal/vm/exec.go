package vm

import (
	"fmt"
	"runtime/debug"

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
// program is read-only after semantic analysis, its compiled code (see
// compile.go) is immutable once published, and all mutable execution state
// (the current State, call frames, output buffers, decision vectors) lives in
// the Exec and in the States it creates, which never alias across Execs.
// This is the VM half of the compile-once/analyze-many contract that the
// batch engine relies on; a -race test in this package enforces it.
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

	code *code // Prog's compiled code, resolved on first use

	state       *State
	interParams []Value
	outputs     []Output
	steps       int

	// frames is the call stack. It keeps its frames between calls, so a
	// call reuses the slot arrays of an earlier call at the same depth.
	// Frames [0, sp) are taken: by active routines, or by a call whose
	// arguments are still being evaluated. depth counts active routines;
	// slots and refs are the innermost active routine's frame.
	frames []frame
	sp     int
	depth  int
	slots  []Value
	refs   []*Value

	decisions []bool
	decUsed   int
}

// frame holds one routine activation: parameters, locals and the result by
// slot, and the locations var parameters are bound to.
type frame struct {
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
	b := e.compiled().initBody()
	e.begin(st, nil, nil)
	defer e.end()
	if b.run != nil {
		if err := b.run(e); err != nil {
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
	g := e.compiled().guard(ti)
	e.begin(st, params, nil)
	defer e.end()
	v, undef, err := g.eval(e)
	if err != nil {
		return false, err
	}
	if undef {
		return e.Partial, nil
	}
	return v, nil
}

// Execute runs transition ti against st in place (the paper's Update
// operation), binding params as the consumed interaction's parameters, and
// returns the outputs the block produced. The caller must snapshot st first
// if it needs to backtrack. Execute must not be used in partial mode when the
// block may fork; use ExecuteForked there. params is left unchanged.
func (e *Exec) Execute(st *State, ti *sema.TransInfo, params []Value) (outs []Output, err error) {
	defer contain("transition ", ti.Name, &err)
	b := e.compiled().transition(ti)
	if b.writesParams {
		params = copyParams(params)
	}
	e.begin(st, params, nil)
	defer e.end()
	if e.PreTransition != nil {
		e.PreTransition(ti.Name)
	}
	if b.run != nil {
		if err := b.run(e); err != nil {
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
// Every branch starts from the same parameters; params is left unchanged.
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
			b := e.compiled().transition(ti)
			ps := params
			if b.writesParams {
				ps = copyParams(params)
			}
			e.begin(snap, ps, d)
			defer e.end()
			if e.PreTransition != nil {
				e.PreTransition(ti.Name)
			}
			if b.run != nil {
				if err := b.run(e); err != nil {
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

// copyParams deep-copies interaction parameters for a body that may write
// them, so the caller's values stay as they were.
func copyParams(ps []Value) []Value {
	if ps == nil {
		return nil
	}
	out := make([]Value, len(ps))
	for i := range ps {
		out[i] = ps[i].Copy()
	}
	return out
}

// compiled returns the compiled code of e.Prog.
func (e *Exec) compiled() *code {
	if e.code == nil {
		e.code = programCode(e.Prog)
	}
	return e.code
}

func (e *Exec) begin(st *State, params []Value, decisions []bool) {
	e.state = st
	e.interParams = params
	e.outputs = nil
	e.steps = 0
	e.sp, e.depth = 0, 0
	e.slots, e.refs = nil, nil
	e.decisions = decisions
	e.decUsed = 0
}

func (e *Exec) end() {
	e.state = nil
	e.interParams = nil
	e.outputs = nil
	e.slots, e.refs = nil, nil
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

// step charges one statement against Limits.MaxSteps.
func (e *Exec) step(pos token.Pos) error {
	e.steps++
	if e.steps > e.Limits.MaxSteps {
		return stepBudgetError(pos, e.Limits.MaxSteps)
	}
	return nil
}

func stepBudgetError(pos token.Pos, max int) error {
	return rte(pos, "statement budget exceeded (%d); possible non-terminating loop", max)
}

// reserve takes the next frame of the call stack for a routine with n slots
// and returns its index. The frame's arrays are reused when large enough:
// everything a frame held is dead once its call returned, and a call fills
// every slot before its body runs.
func (e *Exec) reserve(n int) int {
	k := e.sp
	if k == len(e.frames) {
		e.frames = append(e.frames, frame{})
	}
	fr := &e.frames[k]
	if cap(fr.slots) < n {
		fr.slots = make([]Value, n)
		fr.refs = make([]*Value, n)
	} else {
		fr.slots = fr.slots[:n]
		fr.refs = fr.refs[:n]
	}
	e.sp++
	return k
}

// coerce adapts v to location type dst, performing Pascal range checks.
func coerce(dst *types.Type, v Value, pos token.Pos) (Value, error) {
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

// assign stores a deep copy of v, coerced to the location's type, in lv.
func assign(lv *Value, v *Value, pos token.Pos) error {
	t := lv.T
	if v.Undef {
		*lv = Zero(t, true)
		return nil
	}
	if t.IsOrdinal() {
		lo, hi := t.OrdinalRange()
		if v.I < lo || v.I > hi {
			return rte(pos, "value %d out of range %d..%d", v.I, lo, hi)
		}
	}
	if v.Elems == nil && v.Words == nil {
		*lv = Value{T: t, I: v.I}
		return nil
	}
	cv := v.Copy()
	cv.T = t
	*lv = cv
	return nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func setOp(op token.Kind, a, b Value) Value {
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
	return out
}
