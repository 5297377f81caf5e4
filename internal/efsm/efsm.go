// Package efsm turns a checked Estelle program (sema.Program) into the
// executable static model the analyzer searches over: FSM states, interaction
// points, and transition declarations indexed by (state, interaction point,
// interaction) and by the constant their guard compares an input parameter
// with, so that the Generate operation of the search (§2.2 of the paper) is a
// table lookup rather than a scan.
//
// It also provides the codec between trace-file parameter text and run-time
// values, shared by the analyzer and the implementation-generation mode.
package efsm

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/estelle/ast"
	"repro/internal/estelle/parser"
	"repro/internal/estelle/sema"
	"repro/internal/estelle/token"
	"repro/internal/estelle/types"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Timing records how long each tool-generation phase took when the Spec was
// built through Compile: Parse is the scanner+parser (Pet's front half),
// Check covers semantic analysis and search-table indexing (Pet's back half
// plus Dingo). Specs built directly with New report zero timing.
type Timing struct {
	Parse time.Duration
	Check time.Duration
}

// Spec is the compiled executable model of one specification.
//
// Concurrency contract (compile once, analyze many): a Spec and everything
// reachable from it — the checked sema.Program, its transition and type
// tables, and the indexes built by New — is immutable once New (or Compile)
// returns. No method on Spec or sema.Program mutates shared state, and no
// lazy caches are populated at analysis time. Any number of goroutines may
// therefore share one compiled Spec, each driving its own analyzer/VM; the
// batch engine (package batch) is built on this guarantee, and a -race test
// in this package's test suite enforces it.
type Spec struct {
	Prog *sema.Program

	// Timing is the tool-generation cost breakdown (set by Compile).
	Timing Timing

	// when[state][ip] lists the transitions with a when clause on that IP
	// instance enabled in that FSM state, in declaration order.
	when [][][]*sema.TransInfo
	// spontaneous[state] lists the transitions without a when clause enabled
	// in that FSM state.
	spontaneous [][]*sema.TransInfo
	// cands[state][ip] splits when[state][ip] by interaction and indexes each
	// part on a constant-equality guard (see Candidates).
	cands [][][]candGroup

	ipByName map[string]int
}

// New indexes a checked program.
func New(prog *sema.Program) *Spec {
	s := &Spec{Prog: prog, ipByName: make(map[string]int, len(prog.IPs))}
	nStates := len(prog.States)
	nIPs := len(prog.IPs)
	s.when = make([][][]*sema.TransInfo, nStates)
	s.spontaneous = make([][]*sema.TransInfo, nStates)
	for st := 0; st < nStates; st++ {
		s.when[st] = make([][]*sema.TransInfo, nIPs)
	}
	for _, ti := range prog.Trans {
		states := ti.FromStates
		if states == nil {
			states = allStates(nStates)
		}
		for _, st := range states {
			if ti.Spontaneous() {
				s.spontaneous[st] = append(s.spontaneous[st], ti)
			} else if ti.WhenIPIndex >= 0 {
				s.when[st][ti.WhenIPIndex] = append(s.when[st][ti.WhenIPIndex], ti)
			}
		}
	}
	s.cands = make([][][]candGroup, nStates)
	for st := range s.when {
		s.cands[st] = make([][]candGroup, nIPs)
		for ip, list := range s.when[st] {
			s.cands[st][ip] = groupCandidates(prog.Info, list)
		}
	}
	for _, ip := range prog.IPs {
		s.ipByName[strings.ToLower(ip.Name)] = ip.ID
	}
	return s
}

func allStates(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Compile parses, checks and indexes a specification source text. It is the
// analogue of running Pet followed by Dingo: the result is directly
// executable by the analyzer. Each phase runs under a pprof label
// (tango_phase=parse/compile) and is timed into Spec.Timing, so both CPU
// profiles and run reports can attribute tool-generation cost.
func Compile(file, src string) (*Spec, error) {
	var (
		astSpec *ast.Spec
		err     error
	)
	t0 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("tango_phase", "parse"), func(context.Context) {
		astSpec, err = parser.Parse(file, src)
	})
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	parseD := time.Since(t0)

	var s *Spec
	t1 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("tango_phase", "compile"), func(context.Context) {
		var prog *sema.Program
		prog, err = sema.Check(astSpec)
		if err == nil {
			s = New(prog)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	s.Timing = Timing{Parse: parseD, Check: time.Since(t1)}
	return s, nil
}

// NumStates returns the number of FSM states.
func (s *Spec) NumStates() int { return len(s.Prog.States) }

// NumIPs returns the number of interaction-point instances.
func (s *Spec) NumIPs() int { return len(s.Prog.IPs) }

// StateName returns the name of state ordinal st.
func (s *Spec) StateName(st int) string {
	if st < 0 || st >= len(s.Prog.States) {
		return fmt.Sprintf("state(%d)", st)
	}
	return s.Prog.States[st]
}

// IPName returns the display name of IP instance id.
func (s *Spec) IPName(id int) string { return s.Prog.IPs[id].Name }

// IPByName resolves a trace-file IP name (case-insensitive).
func (s *Spec) IPByName(name string) (int, bool) {
	id, ok := s.ipByName[strings.ToLower(name)]
	return id, ok
}

// When returns the when-clause transitions for (state, ip).
func (s *Spec) When(state, ip int) []*sema.TransInfo { return s.when[state][ip] }

// Spontaneous returns the spontaneous transitions enabled in state.
func (s *Spec) Spontaneous(state int) []*sema.TransInfo { return s.spontaneous[state] }

// Candidates returns the when-clause transitions of (state, ip) that accept
// an input of interaction inter whose guards can hold for the parameter
// values params, in declaration order. It is When(state, ip) filtered by
// interaction, minus the transitions a constant-equality guard rules out:
// a transition whose provided clause is "p = c and ..." (or "c = p and ...",
// any and-nesting, p an ordinal interaction parameter, c a literal or
// constant) is omitted when params binds p to a defined value other than c.
// The VM evaluates the left operand of and first and stops on a defined
// false, so every omitted guard would have evaluated to a defined false
// without touching anything else: skipping it cannot hide a fault, a runtime
// error or an undefined (partial-mode) result.
func (s *Spec) Candidates(state, ip int, inter *sema.Interaction, params []vm.Value) Cands {
	for i := range s.cands[state][ip] {
		g := &s.cands[state][ip][i]
		if g.inter != inter {
			continue
		}
		if g.slot < 0 || g.slot >= len(params) || params[g.slot].Undef {
			return Cands{a: g.all}
		}
		return Cands{a: g.lookup(params[g.slot].I), b: g.rest}
	}
	return Cands{}
}

// Cands is the result of Candidates: the merge of two lists that are each in
// declaration order.
type Cands struct{ a, b []*sema.TransInfo }

// Next returns the next candidate in declaration order, or nil after the last.
func (c *Cands) Next() *sema.TransInfo {
	var ti *sema.TransInfo
	if len(c.a) > 0 && (len(c.b) == 0 || c.a[0].Index < c.b[0].Index) {
		ti, c.a = c.a[0], c.a[1:]
	} else if len(c.b) > 0 {
		ti, c.b = c.b[0], c.b[1:]
	}
	return ti
}

// candGroup indexes the when-clause transitions of one (state, IP,
// interaction) on the parameter slot that the most of their guards compare
// with a constant.
type candGroup struct {
	inter *sema.Interaction
	all   []*sema.TransInfo // every transition of the group
	slot  int               // discriminating parameter, or -1 if none
	// keyed holds the transitions keyed on slot, sorted stably by their
	// constants vals; rest holds the others.
	keyed []*sema.TransInfo
	vals  []int64
	rest  []*sema.TransInfo
}

// lookup returns the transitions keyed on constant v, in declaration order.
func (g *candGroup) lookup(v int64) []*sema.TransInfo {
	lo, _ := slices.BinarySearch(g.vals, v)
	hi := lo
	for hi < len(g.vals) && g.vals[hi] == v {
		hi++
	}
	return g.keyed[lo:hi]
}

// groupCandidates splits a (state, IP) transition list by interaction and
// builds each part's index. Every list keeps the order of list.
func groupCandidates(info *sema.Info, list []*sema.TransInfo) []candGroup {
	if len(list) == 0 {
		return nil
	}
	groups := make([]candGroup, 0, len(list[0].WhenInter.Channel.Interactions))
	for _, ti := range list {
		i := 0
		for i < len(groups) && groups[i].inter != ti.WhenInter {
			i++
		}
		if i == len(groups) {
			groups = append(groups, candGroup{inter: ti.WhenInter, slot: -1})
		}
		groups[i].all = append(groups[i].all, ti)
	}
	for i := range groups {
		groups[i].index(info)
	}
	return groups
}

// index picks the parameter slot the most guards of g are keyed on and
// sorts the transitions keyed on it by constant.
func (g *candGroup) index(info *sema.Info) {
	var count []int
	for _, ti := range g.all {
		if slot, _, ok := guardKey(info, ti); ok {
			if count == nil {
				count = make([]int, len(g.inter.Params))
			}
			count[slot]++
		}
	}
	for slot, n := range count {
		if n > 0 && (g.slot < 0 || n > count[g.slot]) {
			g.slot = slot
		}
	}
	if g.slot < 0 {
		return
	}
	g.keyed = make([]*sema.TransInfo, 0, count[g.slot])
	g.vals = make([]int64, 0, count[g.slot])
	for _, ti := range g.all {
		if slot, val, ok := guardKey(info, ti); ok && slot == g.slot {
			g.keyed = append(g.keyed, ti)
			g.vals = append(g.vals, val)
		} else {
			g.rest = append(g.rest, ti)
		}
	}
	sort.Stable(byConst{g})
}

// byConst orders a group's keyed transitions by constant.
type byConst struct{ g *candGroup }

func (b byConst) Len() int           { return len(b.g.vals) }
func (b byConst) Less(i, j int) bool { return b.g.vals[i] < b.g.vals[j] }
func (b byConst) Swap(i, j int) {
	b.g.vals[i], b.g.vals[j] = b.g.vals[j], b.g.vals[i]
	b.g.keyed[i], b.g.keyed[j] = b.g.keyed[j], b.g.keyed[i]
}

// guardKey reports whether ti's guard starts with a constant-equality test
// on one of its interaction parameters: the leftmost operand of its and
// chain is "p = c" or "c = p", with p an ordinal interaction parameter of ti
// and c an integer, boolean or character literal or a declared constant.
func guardKey(info *sema.Info, ti *sema.TransInfo) (slot int, val int64, ok bool) {
	x := ti.Provided
	for {
		b, isAnd := x.(*ast.BinaryExpr)
		if !isAnd || b.Op != token.AND {
			break
		}
		x = b.X
	}
	eq, isEq := x.(*ast.BinaryExpr)
	if !isEq || eq.Op != token.EQ {
		return 0, 0, false
	}
	if slot, ok = paramSlot(info, ti, eq.X); ok {
		val, ok = constValue(info, eq.Y)
	} else if slot, ok = paramSlot(info, ti, eq.Y); ok {
		val, ok = constValue(info, eq.X)
	}
	return slot, val, ok
}

func paramSlot(info *sema.Info, ti *sema.TransInfo, x ast.Expr) (int, bool) {
	id, ok := x.(*ast.Ident)
	if !ok {
		return 0, false
	}
	vs, ok := info.Uses[id].(*sema.VarSym)
	if !ok || vs.Kind != sema.InterParamVar || vs.Slot >= len(ti.ParamSyms) ||
		ti.ParamSyms[vs.Slot] != vs || !vs.Type.IsOrdinal() {
		return 0, false
	}
	return vs.Slot, true
}

// constValue returns the ordinal the VM gives a constant operand.
func constValue(info *sema.Info, x ast.Expr) (int64, bool) {
	switch x := x.(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.BoolLit:
		if x.Value {
			return 1, true
		}
		return 0, true
	case *ast.CharLit:
		return int64(x.Value), true
	case *ast.Ident:
		c, ok := info.Uses[x].(*sema.ConstSym)
		if !ok || sema.NilConst(c) || c.Type == nil || !c.Type.IsOrdinal() {
			return 0, false
		}
		return c.Val, true
	}
	return 0, false
}

// HasWhenOn reports whether any transition in state has a when clause on ip;
// this is the PG-node criterion of §3.1.1 (a transition might have been
// fireable if input were available).
func (s *Spec) HasWhenOn(state, ip int) bool { return len(s.when[state][ip]) > 0 }

// TransitionCount returns the number of transition declarations, the paper's
// measure of specification size (§4).
func (s *Spec) TransitionCount() int { return len(s.Prog.Trans) }

// ---------------------------------------------------------------------------
// Trace event resolution

// ResolvedEvent is a trace event bound to the specification: IP instance id,
// interaction, and parameter values in declaration order.
type ResolvedEvent struct {
	Seq    int
	Dir    trace.Dir
	IP     int
	Inter  *sema.Interaction
	Params []vm.Value
}

// ResolveEvent binds a textual trace event to the specification, validating
// IP name, interaction name, direction legality and parameter values.
func (s *Spec) ResolveEvent(ev trace.Event) (ResolvedEvent, error) {
	var out ResolvedEvent
	id, ok := s.IPByName(ev.IP)
	if !ok {
		return out, fmt.Errorf("trace line %d: unknown interaction point %q", ev.Line, ev.IP)
	}
	group := s.Prog.IPs[id].Group
	inter, ok := group.Channel.Interactions[strings.ToLower(ev.Interaction)]
	if !ok {
		return out, fmt.Errorf("trace line %d: channel %s has no interaction %q",
			ev.Line, group.Channel.Name, ev.Interaction)
	}
	// Direction legality: inputs to the module are sent by the peer role;
	// outputs are sent by the module's own role.
	if ev.Dir == trace.In && !inter.ByRole[group.PeerRole] {
		return out, fmt.Errorf("trace line %d: interaction %s cannot arrive at ip %s (not sendable by role %s)",
			ev.Line, inter.Name, ev.IP, group.PeerRole)
	}
	if ev.Dir == trace.Out && !inter.ByRole[group.Role] {
		return out, fmt.Errorf("trace line %d: interaction %s cannot be output at ip %s (not sendable by role %s)",
			ev.Line, inter.Name, ev.IP, group.Role)
	}
	params := make([]vm.Value, len(inter.Params))
	for i, p := range inter.Params {
		params[i] = vm.UndefValue(p.Type)
	}
	for _, tp := range ev.Params {
		i := paramIndex(inter, tp.Name)
		if i < 0 {
			return out, fmt.Errorf("trace line %d: interaction %s has no parameter %q",
				ev.Line, inter.Name, tp.Name)
		}
		v, err := ParseValue(inter.Params[i].Type, tp.Value)
		if err != nil {
			return out, fmt.Errorf("trace line %d: parameter %s: %v", ev.Line, tp.Name, err)
		}
		params[i] = v
	}
	out = ResolvedEvent{Seq: ev.Seq, Dir: ev.Dir, IP: id, Inter: inter, Params: params}
	return out, nil
}

func paramIndex(inter *sema.Interaction, name string) int {
	for i, p := range inter.Params {
		if strings.EqualFold(p.Name, name) {
			return i
		}
	}
	return -1
}

// ParseValue parses a trace-file parameter value of the given type. "?"
// denotes an unobserved (undefined) value.
func ParseValue(t *types.Type, s string) (vm.Value, error) {
	if s == "?" {
		return vm.UndefValue(t), nil
	}
	root := t.Root()
	switch root.Kind {
	case types.Integer:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return vm.Value{}, fmt.Errorf("invalid integer %q", s)
		}
		return rangeCheck(t, i)
	case types.Boolean:
		switch strings.ToLower(s) {
		case "true":
			return vm.MakeOrdinal(t, 1), nil
		case "false":
			return vm.MakeOrdinal(t, 0), nil
		}
		return vm.Value{}, fmt.Errorf("invalid boolean %q", s)
	case types.Char:
		if len(s) == 3 && s[0] == '\'' && s[2] == '\'' {
			return vm.MakeOrdinal(t, int64(s[1])), nil
		}
		if len(s) == 1 {
			return vm.MakeOrdinal(t, int64(s[0])), nil
		}
		return vm.Value{}, fmt.Errorf("invalid char %q", s)
	case types.Enum:
		for i, n := range root.EnumNames {
			if strings.EqualFold(n, s) {
				return rangeCheck(t, int64(i))
			}
		}
		// Also accept a numeric ordinal.
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return rangeCheck(t, i)
		}
		return vm.Value{}, fmt.Errorf("unknown enum member %q of %s", s, root)
	default:
		return vm.Value{}, fmt.Errorf("interaction parameters of type %s cannot appear in traces", t)
	}
}

func rangeCheck(t *types.Type, i int64) (vm.Value, error) {
	lo, hi := t.OrdinalRange()
	if i < lo || i > hi {
		return vm.Value{}, fmt.Errorf("value %d out of range %d..%d", i, lo, hi)
	}
	return vm.MakeOrdinal(t, i), nil
}

// FormatValue renders a run-time value in trace-file syntax.
func FormatValue(v vm.Value) string { return v.String() }

// EventFor renders a VM output as a trace event (used by the implementation
// generation mode).
func (s *Spec) EventFor(dir trace.Dir, ip int, inter *sema.Interaction, params []vm.Value) trace.Event {
	ev := trace.Event{Dir: dir, IP: s.IPName(ip), Interaction: inter.Name}
	for i, p := range inter.Params {
		ev.Params = append(ev.Params, trace.Param{Name: p.Name, Value: FormatValue(params[i])})
	}
	return ev
}
