package vm

import (
	"sync/atomic"

	"repro/internal/estelle/ast"
	"repro/internal/estelle/sema"
	"repro/internal/estelle/token"
	"repro/internal/estelle/types"
)

// The executor runs closures compiled from the checked AST, in the spirit of
// Dingo generating C++ from the specification: every statement, expression
// and designator becomes a Go closure with its symbols, slots, types and
// field offsets resolved at compile time, so execution does no side-table
// lookups and no type switches on AST nodes.
//
// Compilation is lazy and shared. Each transition body, provided clause and
// routine is compiled on its first use and published with a compare-and-swap
// into the program's code table, which hangs off sema.Program.Code; every
// Exec over that program then runs the same closures. The closures hold no
// execution state (it lives in the *Exec they are passed), so sharing them
// across goroutines is safe. Two goroutines racing on a first use may both
// compile; one copy wins and the other is dropped.

type (
	stmtFn func(e *Exec) error
	exprFn func(e *Exec) (Value, error)
	locFn  func(e *Exec) (*Value, error)
	// boolFn evaluates a boolean expression where only its truth and
	// definedness matter (conditions, guards, operands of and/or).
	boolFn func(e *Exec) (b, undef bool, err error)
)

// code is the compiled form of one program.
type code struct {
	prog   *sema.Program
	init   atomic.Pointer[bodyCode]
	trans  []atomic.Pointer[bodyCode]  // by TransInfo.Index
	guards []atomic.Pointer[guardCode] // by TransInfo.Index
	funcs  []atomic.Pointer[funcCode]  // by FuncSym.Index
}

// bodyCode is a compiled transition or initialize block.
type bodyCode struct {
	run stmtFn // nil for a missing body
	// writesParams records that the body can write an interaction
	// parameter, by assignment or as a var argument. Only then do Execute
	// and ExecuteForked copy the caller's parameter slice.
	writesParams bool
}

type guardCode struct{ eval boolFn }

type funcCode struct{ body stmtFn }

// programCode returns prog's code table, creating it on first use.
func programCode(prog *sema.Program) *code {
	if c, ok := prog.Code.Load().(*code); ok {
		return c
	}
	c := &code{
		prog:   prog,
		trans:  make([]atomic.Pointer[bodyCode], len(prog.Trans)),
		guards: make([]atomic.Pointer[guardCode], len(prog.Trans)),
		funcs:  make([]atomic.Pointer[funcCode], len(prog.Funcs)),
	}
	if prog.Code.CompareAndSwap(nil, c) {
		return c
	}
	return prog.Code.Load().(*code)
}

// owns reports whether ti is the program's own transition at its index, so
// its compiled forms may be cached there.
func (c *code) owns(ti *sema.TransInfo) bool {
	return ti.Index >= 0 && ti.Index < len(c.trans) && c.prog.Trans[ti.Index] == ti
}

func (c *code) initBody() *bodyCode {
	if b := c.init.Load(); b != nil {
		return b
	}
	var body *ast.Block
	if in := c.prog.Init; in != nil {
		body = in.Body
	}
	c.init.CompareAndSwap(nil, c.compileBody(body))
	return c.init.Load()
}

func (c *code) transition(ti *sema.TransInfo) *bodyCode {
	if !c.owns(ti) {
		return c.compileBody(ti.Decl.Body)
	}
	p := &c.trans[ti.Index]
	if b := p.Load(); b != nil {
		return b
	}
	p.CompareAndSwap(nil, c.compileBody(ti.Decl.Body))
	return p.Load()
}

func (c *code) compileBody(body *ast.Block) *bodyCode {
	if body == nil {
		return &bodyCode{}
	}
	cp := &compiler{code: c, info: c.prog.Info}
	run := cp.body(body)
	return &bodyCode{run: run, writesParams: cp.writesParams}
}

func (c *code) guard(ti *sema.TransInfo) *guardCode {
	compile := func() *guardCode {
		cp := &compiler{code: c, info: c.prog.Info}
		return &guardCode{eval: cp.boolExpr(ti.Provided)}
	}
	if !c.owns(ti) {
		return compile()
	}
	p := &c.guards[ti.Index]
	if g := p.Load(); g != nil {
		return g
	}
	p.CompareAndSwap(nil, compile())
	return p.Load()
}

// routine returns the compiled body of fs, one of the program's routines.
func (c *code) routine(fs *sema.FuncSym) *funcCode {
	p := &c.funcs[fs.Index]
	if f := p.Load(); f != nil {
		return f
	}
	cp := &compiler{code: c, info: c.prog.Info}
	p.CompareAndSwap(nil, &funcCode{body: cp.body(fs.Decl.Body)})
	return p.Load()
}

// compiler translates one body. It records whether the body can write an
// interaction parameter.
type compiler struct {
	code         *code
	info         *sema.Info
	writesParams bool
}

// failStmt, failExpr and failLoc compile an unresolvable construct into a
// closure that reports it when executed, which is when the interpreter this
// compiler replaced reported it. A statement charges its step first.
func failStmt(pos token.Pos, format string, args ...any) stmtFn {
	return func(e *Exec) error {
		if err := e.step(pos); err != nil {
			return err
		}
		return rte(pos, format, args...)
	}
}

func failExpr(pos token.Pos, format string, args ...any) exprFn {
	return func(*Exec) (Value, error) { return Value{}, rte(pos, format, args...) }
}

func failLoc(pos token.Pos, format string, args ...any) locFn {
	return func(*Exec) (*Value, error) { return nil, rte(pos, format, args...) }
}

// ---------------------------------------------------------------------------
// Statements

// stmt compiles s. Every statement closure first charges one step against
// Limits.MaxSteps.
func (cp *compiler) stmt(s ast.Stmt) stmtFn {
	pos := s.Pos()
	switch s := s.(type) {
	case *ast.Block:
		return cp.block(pos, s.Stmts)
	case *ast.EmptyStmt:
		return func(e *Exec) error { return e.step(pos) }
	case *ast.AssignStmt:
		rhs := cp.expr(s.RHS)
		lhs := cp.loc(s.LHS)
		return func(e *Exec) error {
			if err := e.step(pos); err != nil {
				return err
			}
			v, err := rhs(e)
			if err != nil {
				return err
			}
			lv, err := lhs(e)
			if err != nil {
				return err
			}
			return assign(lv, &v, pos)
		}
	case *ast.IfStmt:
		cond := cp.cond(s.Cond)
		then := cp.stmt(s.Then)
		var els stmtFn
		if s.Else != nil {
			els = cp.stmt(s.Else)
		}
		return func(e *Exec) error {
			if err := e.step(pos); err != nil {
				return err
			}
			b, err := cond(e)
			if err != nil {
				return err
			}
			if b {
				return then(e)
			}
			if els != nil {
				return els(e)
			}
			return nil
		}
	case *ast.WhileStmt:
		cond := cp.cond(s.Cond)
		body := cp.stmt(s.Body)
		return func(e *Exec) error {
			if err := e.step(pos); err != nil {
				return err
			}
			for {
				b, err := cond(e)
				if err != nil {
					return err
				}
				if !b {
					return nil
				}
				if err := body(e); err != nil {
					return err
				}
				if err := e.step(pos); err != nil {
					return err
				}
			}
		}
	case *ast.RepeatStmt:
		body := cp.stmts(s.Body)
		cond := cp.cond(s.Cond)
		return func(e *Exec) error {
			if err := e.step(pos); err != nil {
				return err
			}
			for {
				if err := runStmts(e, body); err != nil {
					return err
				}
				b, err := cond(e)
				if err != nil {
					return err
				}
				if b {
					return nil
				}
				if err := e.step(pos); err != nil {
					return err
				}
			}
		}
	case *ast.ForStmt:
		return cp.forStmt(s)
	case *ast.CaseStmt:
		return cp.caseStmt(s)
	case *ast.OutputStmt:
		return cp.output(s)
	case *ast.CallStmt:
		var run stmtFn
		if b, ok := cp.info.Builtins[ast.Node(s)]; ok {
			run = cp.builtinStmt(s, b)
		} else if fs := cp.info.Calls[ast.Node(s)]; fs == nil {
			return failStmt(pos, "unresolved procedure %s", s.Name)
		} else {
			call := cp.call(fs, s.Args, pos)
			run = func(e *Exec) error {
				_, err := call(e)
				return err
			}
		}
		return func(e *Exec) error {
			if err := e.step(pos); err != nil {
				return err
			}
			return run(e)
		}
	default:
		return failStmt(pos, "unsupported statement")
	}
}

func (cp *compiler) stmts(ss []ast.Stmt) []stmtFn {
	out := make([]stmtFn, len(ss))
	for i, s := range ss {
		out[i] = cp.stmt(s)
	}
	return out
}

func runStmts(e *Exec, ss []stmtFn) error {
	for _, s := range ss {
		if err := s(e); err != nil {
			return err
		}
	}
	return nil
}

// body compiles the block of a transition, initialize or routine. Unlike a
// nested block it charges no step of its own.
func (cp *compiler) body(b *ast.Block) stmtFn {
	ss := cp.stmts(b.Stmts)
	return func(e *Exec) error { return runStmts(e, ss) }
}

func (cp *compiler) block(pos token.Pos, ss []ast.Stmt) stmtFn {
	body := cp.stmts(ss)
	return func(e *Exec) error {
		if err := e.step(pos); err != nil {
			return err
		}
		return runStmts(e, body)
	}
}

func (cp *compiler) forStmt(s *ast.ForStmt) stmtFn {
	pos := s.Pos()
	vs := cp.info.ForVars[s]
	if vs == nil {
		return failStmt(pos, "unresolved for-loop variable %s", s.Var)
	}
	from, to := cp.expr(s.From), cp.expr(s.To)
	ctl := cp.varLoc(vs, pos, true)
	body := cp.stmt(s.Body)
	root, down := vs.Type.Root(), s.Down
	return func(e *Exec) error {
		if err := e.step(pos); err != nil {
			return err
		}
		fv, err := from(e)
		if err != nil {
			return err
		}
		tv, err := to(e)
		if err != nil {
			return err
		}
		if fv.Undef || tv.Undef {
			return rte(pos, "for-loop bound is undefined")
		}
		lv, err := ctl(e)
		if err != nil {
			return err
		}
		for i := fv.I; ; {
			if down && i < tv.I || !down && i > tv.I {
				return nil
			}
			if err := assign(lv, &Value{T: root, I: i}, pos); err != nil {
				return err
			}
			if err := body(e); err != nil {
				return err
			}
			if err := e.step(pos); err != nil {
				return err
			}
			if down {
				i--
			} else {
				i++
			}
		}
	}
}

type caseArm struct {
	labels []exprFn
	body   stmtFn
}

func (cp *compiler) caseStmt(s *ast.CaseStmt) stmtFn {
	pos := s.Pos()
	sel := cp.expr(s.Expr)
	arms := make([]caseArm, len(s.Arms))
	for i, arm := range s.Arms {
		arms[i].body = cp.stmt(arm.Body)
		for _, lab := range arm.Labels {
			arms[i].labels = append(arms[i].labels, cp.expr(lab))
		}
	}
	els := cp.stmts(s.Else)
	return func(e *Exec) error {
		if err := e.step(pos); err != nil {
			return err
		}
		sv, err := sel(e)
		if err != nil {
			return err
		}
		if sv.Undef {
			// Partial mode: fork over the arms with one binary decision
			// each (§5.3); the first arm whose decision is true executes.
			if !e.Partial {
				return rte(pos, "case selector is undefined")
			}
			for _, arm := range arms {
				if e.decide() {
					return arm.body(e)
				}
			}
			return runStmts(e, els)
		}
		for _, arm := range arms {
			for _, lab := range arm.labels {
				lv, err := lab(e)
				if err != nil {
					return err
				}
				if !lv.Undef && lv.I == sv.I {
					return arm.body(e)
				}
			}
		}
		return runStmts(e, els)
	}
}

func (cp *compiler) output(s *ast.OutputStmt) stmtFn {
	pos := s.Pos()
	group := cp.info.OutputGroup[s]
	inter := cp.info.OutputInter[s]
	if group == nil || inter == nil {
		return failStmt(pos, "unresolved output statement")
	}
	var index []exprFn
	var indexPos []token.Pos
	if len(group.Dims) > 0 {
		ix, ok := s.IP.(*ast.IndexExpr)
		if !ok {
			return failStmt(pos, "output to ip array %s without index", group.Name)
		}
		for _, ie := range ix.Indexes {
			index = append(index, cp.expr(ie))
			indexPos = append(indexPos, ie.Pos())
		}
	}
	args := make([]exprFn, len(s.Args))
	argPos := make([]token.Pos, len(s.Args))
	for i, a := range s.Args {
		args[i], argPos[i] = cp.expr(a), a.Pos()
	}
	return func(e *Exec) error {
		if err := e.step(pos); err != nil {
			return err
		}
		ip := group.Base
		if len(index) > 0 {
			vals := make([]int64, len(index))
			for i, ie := range index {
				v, err := ie(e)
				if err != nil {
					return err
				}
				if v.Undef {
					// §5.4: an undefined interaction-point index cannot be
					// resolved; this is one of the cases that makes partial
					// trace analysis of demultiplexers impossible.
					return rte(indexPos[i], "output ip index is undefined")
				}
				vals[i] = v.I
			}
			off := group.FlatIndex(vals)
			if off < 0 {
				return rte(pos, "output ip index out of range for %s", group.Name)
			}
			ip = group.Base + off
		}
		var params []Value
		if e.outputs == nil {
			e.outputs, params = newOutputs(len(args))
		} else {
			params = make([]Value, len(args))
		}
		for i, a := range args {
			v, err := a(e)
			if err != nil {
				return err
			}
			cv, err := coerce(inter.Params[i].Type, v, argPos[i])
			if err != nil {
				return err
			}
			params[i] = cv.Copy()
		}
		e.outputs = append(e.outputs, Output{IP: ip, Inter: inter, Params: params})
		return nil
	}
}

// newOutputs allocates the outputs slice of a run together with the
// parameters of its first output, which is most often its only one.
func newOutputs(nparams int) ([]Output, []Value) {
	switch nparams {
	case 1:
		x := new(struct {
			o [1]Output
			p [1]Value
		})
		return x.o[:0], x.p[:]
	case 2:
		x := new(struct {
			o [1]Output
			p [2]Value
		})
		return x.o[:0], x.p[:]
	}
	return make([]Output, 0, 1), make([]Value, nparams)
}

func (cp *compiler) builtinStmt(s *ast.CallStmt, b sema.Builtin) stmtFn {
	pos := s.Pos()
	switch b {
	case sema.BuiltinNew:
		arg := cp.loc(s.Args[0])
		return func(e *Exec) error {
			lv, err := arg(e)
			if err != nil {
				return err
			}
			if lv.T.Kind != types.Pointer || lv.T.Elem == nil {
				return rte(pos, "new on non-pointer")
			}
			if max := e.Limits.MaxHeapCells; max > 0 && e.state.Heap.Len() >= max {
				return rte(pos, "heap budget exceeded (%d live cells); possible allocation loop", max)
			}
			lv.I = e.state.Heap.Alloc(lv.T.Elem, e.Partial)
			lv.Undef = false
			return nil
		}
	case sema.BuiltinDispose:
		arg := cp.loc(s.Args[0])
		return func(e *Exec) error {
			lv, err := arg(e)
			if err != nil {
				return err
			}
			if lv.Undef {
				return rte(pos, "dispose of undefined pointer")
			}
			if err := e.state.Heap.Dispose(lv.I); err != nil {
				return rte(pos, "%v", err)
			}
			lv.I = 0
			return nil
		}
	default:
		return func(*Exec) error { return rte(pos, "builtin %s cannot be used as a statement", s.Name) }
	}
}

// ---------------------------------------------------------------------------
// Designators

// varLoc compiles the location of a variable. write marks a location the
// body may store through, which for an interaction parameter obliges the
// executor to copy the caller's parameters.
func (cp *compiler) varLoc(vs *sema.VarSym, pos token.Pos, write bool) locFn {
	slot := vs.Slot
	switch vs.Kind {
	case sema.GlobalVar:
		return func(e *Exec) (*Value, error) { return &e.state.Globals[slot], nil }
	case sema.LocalVar, sema.ResultVar:
		return func(e *Exec) (*Value, error) {
			if e.depth == 0 {
				return nil, rte(pos, "local variable %s outside a function", vs.Name)
			}
			return &e.slots[slot], nil
		}
	case sema.RefParam:
		return func(e *Exec) (*Value, error) {
			if e.depth == 0 || e.refs[slot] == nil {
				return nil, rte(pos, "unbound var-parameter %s", vs.Name)
			}
			return e.refs[slot], nil
		}
	case sema.InterParamVar:
		if write {
			cp.writesParams = true
		}
		return func(e *Exec) (*Value, error) {
			if slot >= len(e.interParams) {
				return nil, rte(pos, "interaction parameter %s not bound", vs.Name)
			}
			return &e.interParams[slot], nil
		}
	default:
		return failLoc(pos, "cannot locate variable %s", vs.Name)
	}
}

// loc compiles an assignable designator.
func (cp *compiler) loc(x ast.Expr) locFn {
	pos := x.Pos()
	switch x := x.(type) {
	case *ast.Ident:
		vs, ok := cp.info.Uses[x].(*sema.VarSym)
		if !ok {
			return failLoc(pos, "%s is not assignable", x.Name)
		}
		return cp.varLoc(vs, pos, true)
	case *ast.IndexExpr:
		base := cp.loc(x.X)
		index := cp.index(x)
		return func(e *Exec) (*Value, error) {
			b, err := base(e)
			if err != nil {
				return nil, err
			}
			off, err := index(e, b.T)
			if err != nil {
				return nil, err
			}
			return &b.Elems[off], nil
		}
	case *ast.SelectorExpr:
		base := cp.loc(x.X)
		field := cp.field(x)
		return func(e *Exec) (*Value, error) {
			b, err := base(e)
			if err != nil {
				return nil, err
			}
			i := field(b.T)
			if i < 0 {
				return nil, rte(pos, "no field %s", x.Field)
			}
			return &b.Elems[i], nil
		}
	case *ast.DerefExpr:
		ptr := cp.expr(x.X)
		return func(e *Exec) (*Value, error) {
			pv, err := ptr(e)
			if err != nil {
				return nil, err
			}
			if pv.Undef {
				return nil, rte(pos, "dereference of undefined pointer")
			}
			cell, err := e.state.Heap.Get(pv.I)
			if err != nil {
				return nil, rte(pos, "%v", err)
			}
			return cell, nil
		}
	default:
		return failLoc(pos, "expression is not assignable")
	}
}

// index compiles the flattened element offset of an index expression over an
// array value of runtime type at.
func (cp *compiler) index(x *ast.IndexExpr) func(e *Exec, at *types.Type) (int, error) {
	pos := x.Pos()
	idx := make([]exprFn, len(x.Indexes))
	idxPos := make([]token.Pos, len(x.Indexes))
	for i, ie := range x.Indexes {
		idx[i], idxPos[i] = cp.expr(ie), ie.Pos()
	}
	return func(e *Exec, at *types.Type) (int, error) {
		at = at.Root()
		if at.Kind != types.Array {
			return 0, rte(pos, "indexing non-array")
		}
		off := 0
		for d, ie := range idx {
			v, err := ie(e)
			if err != nil {
				return 0, err
			}
			if v.Undef {
				return 0, rte(idxPos[d], "array index is undefined")
			}
			lo, hi := at.Indexes[d].OrdinalRange()
			if v.I < lo || v.I > hi {
				return 0, rte(idxPos[d], "array index %d out of range %d..%d", v.I, lo, hi)
			}
			off = off*int(hi-lo+1) + int(v.I-lo)
		}
		return off, nil
	}
}

// field compiles the field offset of a selector over a record value of
// runtime type t. The offset is resolved from the checked type, which is the
// runtime type of every value the checker typed; any other type looks the
// field up by name.
func (cp *compiler) field(x *ast.SelectorExpr) func(t *types.Type) int {
	static := cp.info.Types[x.X]
	fi := -1
	if static != nil {
		fi = static.Root().FieldIndex(x.Field)
	}
	name := x.Field
	return func(t *types.Type) int {
		if t == static && static != nil {
			return fi
		}
		return t.Root().FieldIndex(name)
	}
}

// ---------------------------------------------------------------------------
// Expressions

// constant folds literals and named constants.
func (cp *compiler) constant(x ast.Expr) (Value, bool) {
	switch x := x.(type) {
	case *ast.IntLit:
		return MakeInt(x.Value), true
	case *ast.BoolLit:
		return MakeBool(x.Value), true
	case *ast.CharLit:
		return MakeOrdinal(types.Chr, int64(x.Value)), true
	case *ast.Ident:
		if sym, ok := cp.info.Uses[x].(*sema.ConstSym); ok {
			if sema.NilConst(sym) {
				return Value{T: sym.Type}, true
			}
			return MakeOrdinal(sym.Type, sym.Val), true
		}
	}
	return Value{}, false
}

func constExpr(v Value) exprFn { return func(*Exec) (Value, error) { return v, nil } }

func (cp *compiler) expr(x ast.Expr) exprFn {
	if v, ok := cp.constant(x); ok {
		return constExpr(v)
	}
	pos := x.Pos()
	switch x := x.(type) {
	case *ast.Ident:
		switch sym := cp.info.Uses[x].(type) {
		case *sema.VarSym:
			return cp.varRead(sym, pos)
		case *sema.FuncSym:
			return cp.call(sym, nil, pos)
		default:
			return failExpr(pos, "unresolved identifier %s", x.Name)
		}
	case *ast.UnaryExpr:
		arg := cp.expr(x.X)
		op := x.Op
		return func(e *Exec) (Value, error) {
			v, err := arg(e)
			if err != nil {
				return Value{}, err
			}
			if v.Undef {
				return UndefValue(v.T), nil
			}
			switch op {
			case token.NOT:
				return MakeBool(!v.Bool()), nil
			case token.MINUS:
				return MakeInt(-v.I), nil
			default:
				return MakeInt(v.I), nil
			}
		}
	case *ast.BinaryExpr:
		return cp.binary(x)
	case *ast.IndexExpr:
		base := cp.expr(x.X)
		index := cp.index(x)
		t := cp.info.Types[ast.Expr(x)]
		return func(e *Exec) (Value, error) {
			b, err := base(e)
			if err != nil {
				return Value{}, err
			}
			if b.Undef {
				return UndefValue(t), nil
			}
			off, err := index(e, b.T)
			if err != nil {
				return Value{}, err
			}
			return b.Elems[off], nil
		}
	case *ast.SelectorExpr:
		base := cp.expr(x.X)
		field := cp.field(x)
		return func(e *Exec) (Value, error) {
			b, err := base(e)
			if err != nil {
				return Value{}, err
			}
			i := field(b.T)
			if i < 0 {
				return Value{}, rte(pos, "no field %s", x.Field)
			}
			if b.Undef {
				return UndefValue(b.T.Root().Fields[i].Type), nil
			}
			return b.Elems[i], nil
		}
	case *ast.DerefExpr:
		// Read-only dereference: Load avoids the copy-on-write unsharing
		// that the assignable path performs via Heap.Get, so pure reads
		// never force a cell copy after a snapshot.
		ptr := cp.expr(x.X)
		return func(e *Exec) (Value, error) {
			pv, err := ptr(e)
			if err != nil {
				return Value{}, err
			}
			if pv.Undef {
				return Value{}, rte(pos, "dereference of undefined pointer")
			}
			cv, err := e.state.Heap.Load(pv.I)
			if err != nil {
				return Value{}, rte(pos, "%v", err)
			}
			return *cv, nil
		}
	case *ast.CallExpr:
		if b, ok := cp.info.Builtins[ast.Node(x)]; ok {
			return cp.builtin(x, b)
		}
		fs := cp.info.Calls[ast.Node(x)]
		if fs == nil {
			return failExpr(pos, "unresolved function %s", x.Name)
		}
		return cp.call(fs, x.Args, pos)
	case *ast.SetLit:
		return cp.setLit(x)
	default:
		return failExpr(pos, "unsupported expression")
	}
}

// varRead compiles a variable read; globals and frame slots skip the
// location indirection.
func (cp *compiler) varRead(vs *sema.VarSym, pos token.Pos) exprFn {
	slot := vs.Slot
	switch vs.Kind {
	case sema.GlobalVar:
		return func(e *Exec) (Value, error) { return e.state.Globals[slot], nil }
	case sema.LocalVar, sema.ResultVar:
		return func(e *Exec) (Value, error) {
			if e.depth == 0 {
				return Value{}, rte(pos, "local variable %s outside a function", vs.Name)
			}
			return e.slots[slot], nil
		}
	case sema.InterParamVar:
		return func(e *Exec) (Value, error) {
			if slot >= len(e.interParams) {
				return Value{}, rte(pos, "interaction parameter %s not bound", vs.Name)
			}
			return e.interParams[slot], nil
		}
	}
	loc := cp.varLoc(vs, pos, false)
	return func(e *Exec) (Value, error) {
		lv, err := loc(e)
		if err != nil {
			return Value{}, err
		}
		return *lv, nil
	}
}

// setLimit bounds the canonical set representation: elements must be
// non-negative ordinals below it.
const setLimit = 4096

func (cp *compiler) setLit(x *ast.SetLit) exprFn {
	pos := x.Pos()
	t := cp.info.Types[ast.Expr(x)]
	if t == nil || t.Kind != types.Set {
		return failExpr(pos, "unresolved set literal")
	}
	// A literal of in-range constants is built once.
	folded := Value{T: t}
	foldable := true
	for _, se := range x.Elems {
		lo, ok := cp.constant(se.Lo)
		hi := lo
		if ok && se.Hi != nil {
			hi, ok = cp.constant(se.Hi)
		}
		if !ok || lo.I < 0 || hi.I >= setLimit {
			foldable = false
			break
		}
		for i := lo.I; i <= hi.I; i++ {
			folded.setAdd(i, setLimit)
		}
	}
	if foldable {
		return constExpr(folded)
	}
	type elem struct{ lo, hi exprFn }
	elems := make([]elem, len(x.Elems))
	for i, se := range x.Elems {
		elems[i].lo = cp.expr(se.Lo)
		if se.Hi != nil {
			elems[i].hi = cp.expr(se.Hi)
		}
	}
	return func(e *Exec) (Value, error) {
		v := Value{T: t}
		for _, se := range elems {
			loV, err := se.lo(e)
			if err != nil {
				return Value{}, err
			}
			hiV := loV
			if se.hi != nil {
				if hiV, err = se.hi(e); err != nil {
					return Value{}, err
				}
			}
			if loV.Undef || hiV.Undef {
				return UndefValue(t), nil
			}
			if loV.I < 0 || hiV.I >= setLimit {
				return Value{}, rte(pos, "set element out of range 0..%d", setLimit-1)
			}
			for i := loV.I; i <= hiV.I; i++ {
				v.setAdd(i, setLimit)
			}
		}
		return v, nil
	}
}

func isComparison(op token.Kind) bool {
	switch op {
	case token.EQ, token.NEQ, token.LT, token.LEQ, token.GT, token.GEQ, token.IN:
		return true
	}
	return false
}

func (cp *compiler) binary(x *ast.BinaryExpr) exprFn {
	if x.Op == token.AND || x.Op == token.OR || isComparison(x.Op) {
		// Boolean results depend only on the truth and definedness the
		// bool compiler computes.
		b := cp.boolExpr(x)
		undef := UndefValue(types.Bool)
		if t := cp.info.Types[ast.Expr(x)]; t != nil && isComparison(x.Op) {
			undef = UndefValue(t)
		}
		return func(e *Exec) (Value, error) {
			v, u, err := b(e)
			if err != nil {
				return Value{}, err
			}
			if u {
				return undef, nil
			}
			return MakeBool(v), nil
		}
	}
	pos := x.Pos()
	ea, eb := cp.expr(x.X), cp.expr(x.Y)
	resT := cp.info.Types[ast.Expr(x)]
	if resT == nil {
		resT = types.Bool
	}
	op := x.Op
	return func(e *Exec) (Value, error) {
		a, err := ea(e)
		if err != nil {
			return Value{}, err
		}
		b, err := eb(e)
		if err != nil {
			return Value{}, err
		}
		if a.Undef || b.Undef {
			return UndefValue(resT), nil
		}
		switch op {
		case token.PLUS, token.MINUS, token.STAR:
			if a.T.Root().Kind == types.Set {
				return setOp(op, a, b), nil
			}
			switch op {
			case token.PLUS:
				return MakeInt(a.I + b.I), nil
			case token.MINUS:
				return MakeInt(a.I - b.I), nil
			default:
				return MakeInt(a.I * b.I), nil
			}
		case token.DIV:
			if b.I == 0 {
				return Value{}, rte(pos, "division by zero")
			}
			return MakeInt(a.I / b.I), nil
		case token.MOD:
			if b.I == 0 {
				return Value{}, rte(pos, "division by zero")
			}
			m := a.I % b.I
			if m < 0 {
				m += abs64(b.I)
			}
			return MakeInt(m), nil
		default:
			return Value{}, rte(pos, "unsupported operator %s", op)
		}
	}
}

// scalar reports whether values of checked type t compare by ordinal alone.
func scalar(t *types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Root().Kind {
	case types.Array, types.Record, types.Set:
		return false
	}
	return true
}

// boolExpr compiles a boolean expression to its truth and definedness.
// and/or use Kleene logic, so that `defined-false and undefined` is a
// defined false; the left operand is evaluated first.
func (cp *compiler) boolExpr(x ast.Expr) boolFn {
	switch bx := x.(type) {
	case *ast.BoolLit:
		v := bx.Value
		return func(*Exec) (bool, bool, error) { return v, false, nil }
	case *ast.BinaryExpr:
		switch bx.Op {
		case token.AND, token.OR:
			return kleene(bx.Op == token.AND, cp.boolExpr(bx.X), cp.boolExpr(bx.Y))
		case token.EQ, token.NEQ, token.LT, token.LEQ, token.GT, token.GEQ, token.IN:
			return cp.compare(bx)
		}
	}
	v := cp.expr(x)
	return func(e *Exec) (bool, bool, error) {
		r, err := v(e)
		if err != nil {
			return false, false, err
		}
		return r.Bool(), r.Undef, nil
	}
}

func kleene(and bool, x, y boolFn) boolFn {
	return func(e *Exec) (bool, bool, error) {
		a, au, err := x(e)
		if err != nil {
			return false, false, err
		}
		if !au && a != and {
			return a, false, nil // false and _, true or _
		}
		b, bu, err := y(e)
		if err != nil {
			return false, false, err
		}
		if !bu && b != and {
			return b, false, nil
		}
		if au || bu {
			return false, true, nil
		}
		return and, false, nil // both true (and) or both false (or)
	}
}

// compare compiles a comparison. Scalar operands compare their ordinals
// directly, and a constant right operand is folded in.
func (cp *compiler) compare(x *ast.BinaryExpr) boolFn {
	ea := cp.expr(x.X)
	op := x.Op
	eqScalar := scalar(cp.info.Types[x.X])
	test := func(a, b Value) bool {
		switch op {
		case token.EQ:
			if eqScalar && a.T != nil {
				return a.I == b.I
			}
			return Equal(a, b)
		case token.NEQ:
			if eqScalar && a.T != nil {
				return a.I != b.I
			}
			return !Equal(a, b)
		case token.LT:
			return a.I < b.I
		case token.LEQ:
			return a.I <= b.I
		case token.GT:
			return a.I > b.I
		case token.GEQ:
			return a.I >= b.I
		default: // token.IN
			return b.setHas(a.I)
		}
	}
	if c, ok := cp.constant(x.Y); ok && op != token.IN {
		return func(e *Exec) (bool, bool, error) {
			a, err := ea(e)
			if err != nil {
				return false, false, err
			}
			if a.Undef {
				return false, true, nil
			}
			return test(a, c), false, nil
		}
	}
	eb := cp.expr(x.Y)
	return func(e *Exec) (bool, bool, error) {
		a, err := ea(e)
		if err != nil {
			return false, false, err
		}
		b, err := eb(e)
		if err != nil {
			return false, false, err
		}
		if a.Undef || b.Undef {
			return false, true, nil
		}
		return test(a, b), false, nil
	}
}

// cond compiles a statement condition; undefined conditions fork in partial
// mode (§5.3) and are errors otherwise.
func (cp *compiler) cond(x ast.Expr) func(e *Exec) (bool, error) {
	b := cp.boolExpr(x)
	pos := x.Pos()
	return func(e *Exec) (bool, error) {
		v, undef, err := b(e)
		if err != nil {
			return false, err
		}
		if undef {
			if !e.Partial {
				return false, rte(pos, "condition is undefined")
			}
			return e.decide(), nil
		}
		return v, nil
	}
}

func (cp *compiler) builtin(x *ast.CallExpr, b sema.Builtin) exprFn {
	pos := x.Pos()
	arg := cp.expr(x.Args[0])
	t := cp.info.Types[ast.Expr(x)]
	if t == nil {
		t = types.Int
	}
	return func(e *Exec) (Value, error) {
		v, err := arg(e)
		if err != nil {
			return Value{}, err
		}
		if v.Undef {
			return UndefValue(t), nil
		}
		switch b {
		case sema.BuiltinOrd:
			return MakeInt(v.I), nil
		case sema.BuiltinChr:
			if v.I < 0 || v.I > 255 {
				return Value{}, rte(pos, "chr argument %d out of range", v.I)
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
				return Value{}, rte(pos, "succ/pred result %d out of range %d..%d", n, lo, hi)
			}
			return MakeOrdinal(v.T, n), nil
		case sema.BuiltinAbs:
			return MakeInt(abs64(v.I)), nil
		case sema.BuiltinOdd:
			return MakeBool(v.I%2 != 0), nil
		default:
			return Value{}, rte(pos, "unsupported builtin")
		}
	}
}

// ---------------------------------------------------------------------------
// Calls

// callArg is one compiled actual parameter.
type callArg struct {
	ref  locFn  // var parameter
	val  exprFn // value parameter
	typ  *types.Type
	pos  token.Pos
	slot int
}

type callLocal struct {
	typ  *types.Type
	slot int
}

// call compiles a call of a user function or procedure. Frames come from
// the executor's frame stack (see Exec.reserve), so a call allocates
// nothing beyond the values it creates.
func (cp *compiler) call(fs *sema.FuncSym, args []ast.Expr, pos token.Pos) exprFn {
	c := cp.code
	n := len(fs.Params)
	missing := -1
	if len(args) < n {
		missing, n = len(args), len(args)
	}
	cargs := make([]callArg, n)
	for i := 0; i < n; i++ {
		p := fs.Params[i]
		a := &cargs[i]
		a.slot, a.typ, a.pos = p.Slot, p.Type, args[i].Pos()
		if p.Kind == sema.RefParam {
			a.ref = cp.loc(args[i])
		} else {
			a.val = cp.expr(args[i])
		}
	}
	locals := make([]callLocal, len(fs.Locals))
	for i, l := range fs.Locals {
		locals[i] = callLocal{typ: l.Type, slot: l.Slot}
	}
	return func(e *Exec) (Value, error) {
		if e.depth >= e.Limits.MaxCallDepth {
			return Value{}, rte(pos, "call depth limit exceeded in %s", fs.Name)
		}
		k := e.reserve(fs.NumSlots)
		for i := range cargs {
			a := &cargs[i]
			if a.ref != nil {
				lv, err := a.ref(e)
				if err != nil {
					e.sp = k
					return Value{}, err
				}
				e.frames[k].refs[a.slot] = lv
				continue
			}
			v, err := a.val(e)
			if err == nil {
				v, err = coerce(a.typ, v, a.pos)
			}
			if err != nil {
				e.sp = k
				return Value{}, err
			}
			e.frames[k].slots[a.slot] = v.Copy()
		}
		if missing >= 0 {
			e.sp = k
			return Value{}, rte(pos, "%s: missing argument %d", fs.Name, missing+1)
		}
		fr := &e.frames[k]
		for _, l := range locals {
			fr.slots[l.slot] = Zero(l.typ, e.Partial)
		}
		if fs.Result != nil {
			fr.slots[fs.ResultSlot] = Zero(fs.Result, true)
		}
		body := c.routine(fs).body
		slots, refs := e.slots, e.refs
		e.slots, e.refs = fr.slots, fr.refs
		e.depth++
		err := body(e)
		e.depth--
		e.slots, e.refs = slots, refs
		e.sp = k
		if err != nil {
			return Value{}, err
		}
		if fs.Result != nil {
			return e.frames[k].slots[fs.ResultSlot], nil
		}
		return Value{T: types.Int}, nil
	}
}
