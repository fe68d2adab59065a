package ckpt

import (
	"fmt"
	"sync"
	"testing"
)

// putSteps stores one rank-0 record at each step.
func putSteps(t *testing.T, s Store, steps ...int) {
	t.Helper()
	for _, step := range steps {
		if _, err := s.Put(Meta{Kind: "t", Step: step}, []byte(fmt.Sprintf("state-%d", step))); err != nil {
			t.Fatal(err)
		}
	}
}

func stepsOf(t *testing.T, s Store) []int {
	t.Helper()
	steps, err := s.Steps()
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

// KeepLast: 0 is the zero policy: GC keeps every step.
func TestRetentionKeepLastZero(t *testing.T) {
	s := NewMemStore()
	putSteps(t, s, 0, 1, 2, 3, 4)
	removed, err := GC(s, Retention{KeepLast: 0})
	if err != nil {
		t.Fatal(err)
	}
	if removed != nil {
		t.Fatalf("zero policy removed %v", removed)
	}
	if got, want := fmt.Sprint(stepsOf(t, s)), "[0 1 2 3 4]"; got != want {
		t.Fatalf("kept %s, want %s", got, want)
	}
}

// A KeepLast window at least as large as the store removes nothing; one
// step smaller removes exactly the oldest.
func TestRetentionKeepLastLargerThanStore(t *testing.T) {
	s := NewMemStore()
	putSteps(t, s, 0, 3, 6, 9, 12)
	for _, keep := range []int{1000, 5} {
		if removed, err := GC(s, Retention{KeepLast: keep}); err != nil || removed != nil {
			t.Fatalf("KeepLast %d removed %v (err %v), want nothing", keep, removed, err)
		}
	}
	removed, err := GC(s, Retention{KeepLast: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(removed) != "[0]" {
		t.Fatalf("KeepLast 4 removed %v, want [0]", removed)
	}
	if got, want := fmt.Sprint(stepsOf(t, s)), "[3 6 9 12]"; got != want {
		t.Fatalf("kept %s, want %s", got, want)
	}
}

// GC racing a concurrent writer must be safe (run under -race) and
// must never disturb the newest records: the writer only appends newer
// steps, so the retention window slides forward and Latest always
// lands on a fully-written step.
func TestRetentionGCRacesWriter(t *testing.T) {
	for name, mk := range map[string]func() Store{
		"mem": func() Store { return NewMemStore() },
		"dir": func() Store {
			s, err := NewDirStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := mk()
			const steps = 120
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < steps; i++ {
					if _, err := s.Put(Meta{Kind: "t", Step: i}, []byte(fmt.Sprintf("s%d", i))); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < steps/2; i++ {
					if _, err := GC(s, Retention{KeepLast: 3}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			if t.Failed() {
				return
			}
			// A final GC settles the survivors; the newest step must have
			// survived every race and still verify.
			if _, err := GC(s, Retention{KeepLast: 3}); err != nil {
				t.Fatal(err)
			}
			step, states, err := Latest(s, 1)
			if err != nil {
				t.Fatal(err)
			}
			if step != steps-1 {
				t.Fatalf("Latest = %d, want %d", step, steps-1)
			}
			if got, want := string(states[0]), fmt.Sprintf("s%d", steps-1); got != want {
				t.Fatalf("payload %q, want %q", got, want)
			}
		})
	}
}
