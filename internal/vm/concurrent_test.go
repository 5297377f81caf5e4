// The VM half of the compile-once/analyze-many contract: distinct Execs over
// one shared checked program must be able to run concurrently, because every
// batch worker drives its own VM against the same compiled specification.
// This test fails under `go test -race` if transition execution ever writes
// to the shared program or type tables.
package vm_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/efsm"
	"repro/internal/estelle/sema"
	"repro/internal/vm"
	"repro/specs"
)

func TestDistinctExecsShareProgram(t *testing.T) {
	spec, err := efsm.Compile("echo", specs.Echo)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Prog
	byName := make(map[string]*sema.TransInfo)
	for _, ti := range prog.Trans {
		byName[ti.Name] = ti
	}
	ping, good := byName["ping"], byName["good"]
	if ping == nil || good == nil {
		t.Fatalf("echo transitions not found: %v", byName)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := vm.New(prog)
			st, _, err := exec.RunInit()
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 100; i++ {
				// waiting -> waiting when S.probe: output S.alive.
				outs, err := exec.Execute(st, ping, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(outs) != 1 || outs[0].Inter.Name != "alive" {
					t.Errorf("ping produced %v", outs)
					return
				}
				// Guard evaluation reads the shared program concurrently too.
				seq := st.Globals[0].Copy()
				if _, err := exec.EvalProvided(st, good, []vm.Value{seq, seq}); err != nil {
					t.Error(err)
					return
				}
				// Snapshot/restore while other Execs execute.
				snap := st.Snapshot()
				if _, err := exec.Execute(snap, ping, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSharedFamilyAcrossGoroutines is the contract the parallel search rests
// on: COW snapshots of ONE heap family, handed to N goroutines through a
// channel (the happens-before edge), each goroutine executing, snapshotting,
// and releasing its own states while all of them share one paranoid FPSet.
// Under -race this hammers the atomic generation counter, the
// immutable-while-shared cells maps, and the sharded FPSet at once.
func TestSharedFamilyAcrossGoroutines(t *testing.T) {
	spec, err := efsm.Compile("echo", specs.Echo)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Prog
	var ping *sema.TransInfo
	for _, ti := range prog.Trans {
		if ti.Name == "ping" {
			ping = ti
		}
	}
	if ping == nil {
		t.Fatal("echo ping transition not found")
	}

	root := vm.New(prog)
	rootSt, _, err := root.RunInit()
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	seen := vm.NewFPSet(true)
	work := make(chan *vm.State, workers*4)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := vm.New(prog)
			for st := range work {
				for i := 0; i < 50; i++ {
					if _, err := exec.Execute(st, ping, nil); err != nil {
						t.Error(err)
						return
					}
					seen.Add(st.Hash64(), st.Fingerprint)
					// Fork and discard: Snapshot/ReleaseState churn on a
					// family whose siblings live on other goroutines.
					snap := st.Snapshot()
					if _, err := exec.Execute(snap, ping, nil); err != nil {
						t.Error(err)
						return
					}
					seen.Add(snap.Hash64(), snap.Fingerprint)
					vm.ReleaseState(snap)
				}
			}
		}()
	}
	// All handed-out states are snapshots of the one root family, created by
	// the root owner and published over the channel.
	for i := 0; i < workers*4; i++ {
		work <- rootSt.Snapshot()
	}
	close(work)
	wg.Wait()
	if seen.Collisions() != 0 {
		t.Fatalf("observed %d hash collisions on echo states", seen.Collisions())
	}
	if seen.Len() == 0 {
		t.Fatal("no states recorded")
	}
}

// TestReleaseStateTwicePanics pins the double-release guard: handing one
// container to two future owners must crash at the second release site.
func TestReleaseStateTwicePanics(t *testing.T) {
	st := &vm.State{Heap: vm.NewHeap()}
	snap := st.Snapshot()
	vm.ReleaseState(snap)
	defer func() {
		if recover() == nil {
			t.Fatal("second ReleaseState did not panic")
		}
	}()
	vm.ReleaseState(snap)
}

// TestFPSetConcurrentCollisionInjection drives colliding canonical strings
// through the sharded paranoid set from many goroutines: membership answers
// must stay exact (each distinct canon admitted exactly once) and every
// cross-string collision on the forced hash must be counted.
func TestFPSetConcurrentCollisionInjection(t *testing.T) {
	s := vm.NewFPSet(true)
	const workers = 8
	admitted := make([]int, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			canon := []string{"alpha", "beta"}[g%2]
			for i := 0; i < 1000; i++ {
				if s.Add(0xdead<<48, func() string { return canon }) {
					admitted[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range admitted {
		total += n
	}
	if total != 2 {
		t.Fatalf("admitted %d first-sightings, want exactly 2 (alpha, beta)", total)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if c := s.Collisions(); c < 1 {
		t.Fatalf("Collisions = %d, want >= 1 (alpha vs beta share the forced hash)", c)
	}
}

// TestConcurrentFirstUse: compiled code is published per program on the
// first use of each transition, guard and routine. Goroutines, each with a
// fresh Exec over one freshly compiled program, reach those first uses at
// the same moment; every one must get working code and end in the same
// state. Under -race this checks the publication.
func TestConcurrentFirstUse(t *testing.T) {
	const workers = 8
	// Each run: connect, buffer in both directions, drain through the
	// guarded transitions, release.
	script := []struct {
		name  string
		param int64 // < 0: no parameters
	}{
		{"T1", -1}, {"T2", -1}, {"T13", 5}, {"T15", 6}, {"T13", 7},
		{"T14", -1}, {"T16", -1}, {"T15", 8}, {"T17", -1},
	}
	for round := 0; round < 5; round++ {
		spec, err := efsm.Compile("tp0", specs.TP0)
		if err != nil {
			t.Fatal(err)
		}
		byName := make(map[string]*sema.TransInfo)
		for _, ti := range spec.Prog.Trans {
			byName[ti.Name] = ti
		}
		start := make(chan struct{})
		fps := make([]string, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				e := vm.New(spec.Prog)
				e.Partial = g%2 == 1
				<-start
				st, _, err := e.RunInit()
				if err != nil {
					t.Error(err)
					return
				}
				var outs []string
				for _, s := range script {
					ti := byName[s.name]
					var params []vm.Value
					if s.param >= 0 {
						params = []vm.Value{vm.MakeInt(s.param)}
					}
					// Every guard of the transition's state, then the
					// transition itself.
					for _, other := range spec.Prog.Trans {
						if _, err := e.EvalProvided(st, other, params); err != nil {
							t.Error(err)
							return
						}
					}
					results, err := e.ExecuteForked(st, ti, params)
					if err != nil || len(results) != 1 {
						t.Errorf("%s: %d results, %v", s.name, len(results), err)
						return
					}
					st = results[0].State
					for _, o := range results[0].Outputs {
						outs = append(outs, o.String())
					}
				}
				fps[g] = strings.Join(outs, ",") + "|" + st.Fingerprint()
			}(g)
		}
		close(start)
		wg.Wait()
		for g := 1; g < workers; g++ {
			if fps[g] != fps[0] {
				t.Fatalf("round %d: worker %d ended in %q, worker 0 in %q", round, g, fps[g], fps[0])
			}
		}
	}
}
