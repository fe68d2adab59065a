package spectral

import (
	"strings"
	"testing"
)

func TestCheckAccepts(t *testing.T) {
	cases := []struct {
		n      int
		re     float64
		forced bool
		lo, hi int
		procs  int
	}{
		{8, 100, false, 0, 0, 1},
		{16, 1, false, 0, 0, 8},
		{12, 100, false, 0, 0, 6},
		{20, 300, false, 0, 0, 5},
		{24, 100, true, 2, 8, 24},
		{36, 100, true, 3, 12, 9},
		{48, 700, false, 0, 0, 24},
		{60, 100, false, 0, 0, 1},
		{64, 2500, true, 3, 5, 64},
		{16, 100, true, 1, 5, 16},
		{16, 100, true, 0, 0, 1}, // zero band = the [3, 5] default
		{256, 1e4, true, 2, 80, 1},
	}
	for _, c := range cases {
		cfg := Config{N: c.n, Re: c.re, Dt: 1e-3, Forced: c.forced, ForceLo: c.lo, ForceHi: c.hi}
		if err := cfg.Check(c.procs); err != nil {
			t.Errorf("Check(%+v) = %v, want nil", c, err)
		}
	}
}

func TestCheckRejectsWithMenu(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		re     float64
		forced bool
		lo, hi int
		procs  int
		want   []string // substrings the menu-style message must carry
	}{
		{"not divisible by 4", 14, 100, false, 0, 0, 1, []string{"nearest to 14: 12 and 16"}},
		{"7-smooth grid", 28, 100, false, 0, 0, 1, []string{"no prime factors beyond 2, 3, 5"}},
		{"odd grid", 15, 100, false, 0, 0, 1, []string{"divisible by 4"}},
		{"tiny grid", 4, 100, false, 0, 0, 1, []string{"nearest to 4: 8)"}},
		{"absurd grid", 1<<40 + 1, 100, false, 0, 0, 1, []string{"8, 12, 16"}},
		{"zero Re", 16, 0, false, 0, 0, 1, []string{"positive finite"}},
		{"negative Re", 16, -5, false, 0, 0, 1, []string{"positive finite"}},
		{"inverted band", 16, 100, true, 5, 3, 1, []string{"1 <= lo < hi"}},
		{"band too high", 16, 100, true, 2, 9, 1, []string{"<= 5 for N=16"}},
		{"zero lo", 16, 100, true, 0, 3, 1, []string{"1 <= lo"}},
		{"P divides N, not M", 16, 100, false, 0, 0, 16, []string{"N=16", "M=24", "valid rank counts: 1, 2, 4, 8)"}},
		{"P does not divide N", 16, 100, true, 0, 0, 3, []string{"3 ranks", "valid rank counts: 1, 2, 4, 8, 16)"}},
		{"no ranks", 16, 100, false, 0, 0, 0, []string{"0 ranks"}},
	}
	for _, c := range cases {
		err := Config{N: c.n, Re: c.re, Dt: 1e-3, Forced: c.forced, ForceLo: c.lo, ForceHi: c.hi}.Check(c.procs)
		if err == nil {
			t.Errorf("%s: Check accepted", c.name)
			continue
		}
		for _, want := range c.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not show the menu %q", c.name, err, want)
			}
		}
	}
}

// A configuration with several problems reports all of them at once,
// and the constructors and the plan give Check's text.
func TestCheckReportsEveryProblem(t *testing.T) {
	cfg := Config{N: 14, Re: -1, Dt: 1e-3, Forced: true, ForceLo: 9, ForceHi: 2}
	err := cfg.Check(1)
	if err == nil {
		t.Fatal("want error")
	}
	for _, want := range []string{"is not valid: need >= 8", "positive finite", "shell band"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("combined error %q missing %q", err, want)
		}
	}
	if _, nerr := NewForced(cfg, nil, nil); nerr == nil || nerr.Error() != err.Error() {
		t.Errorf("NewForced = %v, want Check's %v", nerr, err)
	}
	_, perr := NewPlan2D(14, true, nil)
	if want := (Config{N: 14, Re: 1, Dt: 1}).Check(1); perr == nil || perr.Error() != want.Error() {
		t.Errorf("NewPlan2D = %v, want Check's %v", perr, want)
	}
}
