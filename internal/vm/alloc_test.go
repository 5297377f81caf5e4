package vm_test

import (
	"testing"

	"repro/internal/efsm"
	"repro/internal/estelle/sema"
	"repro/internal/vm"
	"repro/specs"
)

// maxTP0DataAllocs pins the allocations of one T13+T14 pair on TP0: a data
// request buffered through enq2 and sent on through deq2. What remains is
// the buffer cell new() creates and T14's output, whose parameters share
// one allocation with the outputs slice; routine calls reuse the executor's
// frames.
const maxTP0DataAllocs = 2

// TestTP0DataTransitionAllocs runs TP0's buffer transitions in place and
// counts the allocations per pair.
func TestTP0DataTransitionAllocs(t *testing.T) {
	spec, err := efsm.Compile("tp0", specs.TP0)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*sema.TransInfo)
	for _, ti := range spec.Prog.Trans {
		byName[ti.Name] = ti
	}
	e := vm.New(spec.Prog)
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	// idle -> wfcc -> data.
	for _, name := range []string{"T1", "T2"} {
		if _, err := e.Execute(st, byName[name], nil); err != nil {
			t.Fatal(err)
		}
	}
	t13, t14 := byName["T13"], byName["T14"]
	params := []vm.Value{vm.MakeInt(7)}
	var runErr error
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Execute(st, t13, params); err != nil {
			runErr = err
		}
		outs, err := e.Execute(st, t14, nil)
		if err != nil {
			runErr = err
		} else if len(outs) != 1 || outs[0].Params[0].I != 7 {
			t.Errorf("T14 outputs %v", outs)
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.1f allocations per T13+T14 pair", allocs)
	if allocs > maxTP0DataAllocs {
		t.Errorf("%.1f allocations per T13+T14 pair, want at most %d", allocs, maxTP0DataAllocs)
	}
}
