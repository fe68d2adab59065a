package bench

import (
	"strings"
	"testing"

	"nektar/internal/core"
)

func TestKernelFigures(t *testing.T) {
	for _, fig := range []interface{ String() string }{
		Fig1Dcopy(), Fig2Daxpy(), Fig3Ddot(), Fig4Dgemv(), Fig5Dgemm(), Fig6DgemmSmall(),
	} {
		out := fig.String()
		if len(out) < 200 || !strings.Contains(out, "Muses") {
			t.Fatalf("figure looks empty:\n%.200s", out)
		}
	}
}

func TestFig1PCCompetitiveInL1(t *testing.T) {
	// The PC's L1-resident Level-1 performance is "among the best of
	// the architectures examined" (left-plot set).
	fig := Fig3Ddot()
	best := map[string]float64{}
	for _, s := range fig.Series {
		for i, x := range s.X {
			if x <= 8192 { // fits both operands in PC L1
				if s.Y[i] > best[s.Label] {
					best[s.Label] = s.Y[i]
				}
			}
		}
	}
	for _, m := range []string{"SP2-Silver", "AP3000", "Onyx2"} {
		if best[m] >= best["Muses"] {
			t.Fatalf("in-cache ddot: %s (%v) beats Muses (%v)", m, best[m], best["Muses"])
		}
	}
}

func TestSerialSmallScale(t *testing.T) {
	res, st, err := RunSerial(SerialConfig{Nt: 12, Nr: 3, Order: 6, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Table1Machines) {
		t.Fatalf("results: %d", len(res))
	}
	total := st.Total()
	if total.TotalFlops() == 0 {
		t.Fatal("no work recorded")
	}
	byName := map[string]SerialResult{}
	for _, r := range res {
		if r.CPU <= 0 {
			t.Fatalf("%s: nonpositive CPU %v", r.Machine, r.CPU)
		}
		byName[r.Machine] = r
	}
	// Solve stages (5 and 7 -> indices 4, 6) carry a substantial share
	// even at this validation scale; at paper scale they reach the
	// ~60% of Figure 12 (asserted by the cmd/serialdns run recorded in
	// EXPERIMENTS.md — the share grows with the Schur system size).
	pc := byName["Muses"]
	solvePct := pc.StagePct[4] + pc.StagePct[6]
	if solvePct < 15 || solvePct > 95 {
		t.Fatalf("solve share %v%% implausible (stages %v)", solvePct, pc.StagePct)
	}
	// Table rendering.
	tab := Table1(res)
	if !strings.Contains(tab.String(), "Pentium II") {
		t.Fatalf("table missing PII row:\n%s", tab.String())
	}
	fig, err := Fig12(res, "Onyx2", "Muses")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig, "Poisson") {
		t.Fatalf("Fig12 missing stage names:\n%s", fig)
	}
}

func TestFourierSmallScale(t *testing.T) {
	cfg := FourierConfig{
		ProbeNt: 8, ProbeNr: 2,
		PaperNt: 12, PaperNr: 3, // small "paper" target keeps the test quick
		Order: 5,
		Sweep: Sweep{
			Steps:    1,
			Machines: []string{"RoadRunner-myr", "RoadRunner-eth"},
			Procs:    []int{2, 4},
		},
	}
	res, err := RunFourier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results: %d", len(res))
	}
	for _, r := range res {
		if r.CPU <= 0 || r.Wall < r.CPU {
			t.Fatalf("%s P=%d: cpu=%v wall=%v", r.Machine, r.P, r.CPU, r.Wall)
		}
	}
	// Ethernet wall-clock penalty must exceed Myrinet's at the same P.
	var ethGap, myrGap float64
	for _, r := range res {
		if r.P != 4 {
			continue
		}
		gap := (r.Wall - r.CPU) / r.CPU
		if r.Machine == "RoadRunner-eth" {
			ethGap = gap
		} else {
			myrGap = gap
		}
	}
	if ethGap <= myrGap {
		t.Fatalf("ethernet comm gap %v not above myrinet %v", ethGap, myrGap)
	}
	tab := Table2(res, cfg.Procs, cfg.Machines)
	if !strings.Contains(tab.String(), "/") {
		t.Fatalf("table malformed:\n%s", tab.String())
	}
	if figs := Figs1314(res); !strings.Contains(figs, "wall-clock timing, RoadRunner-eth, 4 processors") {
		t.Fatalf("Figures 13-14 missing the Ethernet cell:\n%s", figs)
	}
}

func TestALESmallScale(t *testing.T) {
	cfg := ALEConfig{
		ProbeNt: 12, ProbeNr: 2, ProbeNz: 2, ProbeOrder: 2,
		PaperElems: 200, PaperOrder: 3,
		PressureIters: 30, HelmIters: 12,
		Sweep: Sweep{
			Steps:    1,
			Machines: []string{"RoadRunner-myr"},
			Procs:    []int{2, 4},
		},
	}
	res, err := RunALE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.CPU <= 0 || r.Wall < r.CPU {
			t.Fatalf("%s P=%d: cpu=%v wall=%v", r.Machine, r.P, r.CPU, r.Wall)
		}
		// Regions b+c dominate (Figures 15-16: solves are ~90%).
		total := r.StageCPU[0] + r.StageCPU[1] + r.StageCPU[2]
		if (r.StageCPU[1]+r.StageCPU[2])/total < 0.5 {
			t.Fatalf("solves only %v of CPU", (r.StageCPU[1]+r.StageCPU[2])/total)
		}
	}
	// Strong scaling: P=4 must be faster than P=2.
	if res[1].Wall >= res[0].Wall {
		t.Fatalf("no strong scaling: P=2 %v, P=4 %v", res[0].Wall, res[1].Wall)
	}
	tab := Table3(res, cfg.Procs, cfg.Machines)
	if !strings.Contains(tab.String(), "RoadRunner-myr") {
		t.Fatalf("table malformed:\n%s", tab.String())
	}
	if figs := sweepPies("Figures 15-16: Nektar-ALE", core.ALEStageNames, res, 4, "RoadRunner-myr"); !strings.Contains(figs, "b pressure solve") {
		t.Fatalf("Figures 15-16 missing the region names:\n%s", figs)
	}
}

func TestFig8SmallP(t *testing.T) {
	fig, err := Fig8Alltoall(4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig.String(), "T3E") {
		t.Fatal("Fig 8 missing T3E series")
	}
}
