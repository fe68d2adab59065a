package workload

import (
	"fmt"
	"testing"

	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// TestCheckPredictsNew: over every entry, size and rank count, Check
// is nil exactly when New succeeds on every rank, and otherwise its
// text is the error every rank's New returns.
func TestCheckPredictsNew(t *testing.T) {
	mach := machine.Muses()
	for _, name := range Names() {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		accepted := 0
		for _, n := range []int{8, 10, 12, 16, 24, 36} {
			for _, procs := range []int{Host, 1, 2, 3, 4, 6, 8, 16} {
				p := e.Default
				p.N = n
				want := fmt.Sprint(e.Check(p, procs))
				got := make([]string, max(procs, 1))
				if procs == Host {
					_, err := e.New(p, nil, nil)
					got[0] = fmt.Sprint(err)
				} else if _, _, err := simnet.Run(procs, mach.Net, func(nd *simnet.Node) {
					_, err := e.New(p, mpi.World(nd), &mach.CPU)
					got[nd.Rank] = fmt.Sprint(err)
				}); err != nil {
					t.Fatalf("%s N=%d P=%d: %v", name, n, procs, err)
				}
				for rank, g := range got {
					if g != want {
						t.Errorf("%s N=%d P=%d rank %d: New = %s, Check = %s", name, n, procs, rank, g, want)
					}
				}
				if want == "<nil>" {
					accepted++
				}
			}
		}
		if accepted == 0 {
			t.Errorf("%s: no (N, P) of the matrix accepted", name)
		}
	}
}

// TestTable: names are unique and sorted, every entry's default runs
// somewhere, and an unknown name is answered with the menu.
func TestTable(t *testing.T) {
	names := Names()
	for i, name := range names {
		if i > 0 && names[i-1] >= name {
			t.Errorf("table not sorted or %q registered twice: %v", name, names)
		}
		e, err := ByName(name)
		if err != nil || e.Name != name || e.Desc == "" {
			t.Errorf("ByName(%q) = %+v, %v", name, e, err)
		}
		if e.Check(e.Default, Host) != nil && e.Check(e.Default, 1) != nil {
			t.Errorf("%s: the default problem runs neither on the host nor on one rank", name)
		}
		if err := e.Check(e.Default, -1); err == nil {
			t.Errorf("%s: a negative rank count accepted", name)
		}
	}
	_, err := ByName("bogus", "extra")
	const want = `unknown workload "bogus": registered workloads are extra, ns2d, nsale, nsf, turb2d, turbforce`
	if err == nil || err.Error() != want {
		t.Errorf("ByName(bogus) = %v, want %s", err, want)
	}
}
