package bench

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"nektar/internal/ckpt"
	"nektar/internal/engine"
	"nektar/internal/fault"
	"nektar/internal/policy"
	"nektar/internal/report"
	"nektar/internal/simnet"
	"nektar/internal/supervisor"
)

// Adaptbench: the differential proof of the adaptive-resilience layer.
// Faultbench tabulates Young's model offline — pick an interval from a
// table, given an MTBF you must already know. This experiment closes
// the loop at runtime and asks whether the closed loop is worth it: the
// same supervised Nektar-F campaign runs under seeded crash plans drawn
// from several node-MTBF regimes on several cluster models, once per
// static checkpoint cadence and once under the adaptive policy
// (internal/policy: online MTBF estimation + live Young retuning). The
// figure of merit is total virtual
// time-to-solution, crashes, rollbacks, and checkpoint I/O included.
//
// The acceptance bar, recorded in BENCH_adapt.json: the adaptive policy
// must land within a few percent of the best static cadence in every
// (regime x machine) cell — without being told the MTBF the faults were
// drawn from, beyond an order-of-magnitude prior — and must clearly
// beat the worst static cadence somewhere. A static setting can only do
// that if the operator already knows the failure rate; the controller
// has to learn it from the campaign's own failure history.

// AdaptbenchConfig parametrizes the sweep.
type AdaptbenchConfig struct {
	// Machines are the cluster models swept (rows come in machine-major
	// order).
	Machines []string
	Solver   string
	Procs    int
	// Spares must cover Procs: the fault plan plants one crash on each
	// of the first Spares physical nodes (workers first, then spares),
	// so every worker carries a planned crash and in the harshest
	// regime the whole initial placement can burn out.
	Spares int
	Steps  int

	// DiskMBs prices checkpoint writes for both sides of the
	// comparison: the probe measures delta (one checkpoint's virtual
	// write cost) through ckpt.SimWriter at this bandwidth, the static
	// runs charge exactly delta per checkpoint, and the adaptive runs'
	// supervised writers price each write through the same model.
	//
	// The quantity Young's formula actually trades off is the
	// dimensionless ratio delta/stepwall, and a demonstration-scale
	// campaign (tens of steps, kilobyte states) would make it
	// vanishingly small at realistic disk speed — every cadence then
	// ties and the sweep measures nothing. The default deliberately
	// slows the virtual store until delta is one-to-a-few step times,
	// the production regime (a minutes-long restart dump against an
	// O(40s) step, per the paper's 250 CPU-hour runs).
	DiskMBs float64

	// StaticIntervals are the fixed cadences the adaptive policy is
	// judged against. SeedInterval seeds the adaptive controller (and
	// sets the reference run's cadence) — the point of the experiment
	// is that the seed should not matter much.
	StaticIntervals []int
	SeedInterval    int

	// MTBFFracs are the failure regimes: each cell plants one crash per
	// node at a time drawn from Exp(frac x fault-free wall). Fractions
	// at or below ~1 make failures a near-certainty; large fractions
	// make them rare.
	MTBFFracs []float64

	// Seeds is the number of independent fault-plan draws averaged per
	// cell (one realized campaign is noisy; the mean is the estimator).
	Seeds int
	Seed  int64

	MaxRestarts int
}

// PaperAdaptbench is the default sweep: the paper's dual-PII cluster in
// both interconnect builds, three regimes from brutal to merely
// unreliable.
var PaperAdaptbench = AdaptbenchConfig{
	Machines:        []string{"RoadRunner-eth", "RoadRunner-myr"},
	Solver:          "nsf",
	Procs:           4,
	Spares:          8,
	Steps:           36,
	DiskMBs:         1,
	StaticIntervals: []int{1, 5, 12},
	SeedInterval:    5,
	MTBFFracs:       []float64{0.3, 0.6, 1.0},
	Seeds:           12,
	Seed:            7,
	MaxRestarts:     24,
}

// QuickAdaptbench is the budget variant for smoke tests and
// `repro -quick`: one machine, one regime, one fault-plan draw.
var QuickAdaptbench = AdaptbenchConfig{
	Machines:        []string{"RoadRunner-eth"},
	Solver:          "nsf",
	Procs:           2,
	Spares:          2,
	Steps:           8,
	DiskMBs:         20,
	StaticIntervals: []int{1, 4},
	SeedInterval:    2,
	MTBFFracs:       []float64{0.6},
	Seeds:           1,
	Seed:            7,
	MaxRestarts:     10,
}

// AdaptStatic is one static cadence's mean time-to-solution in a cell.
type AdaptStatic struct {
	IntervalSteps int
	MeanWallS     float64
}

// AdaptCell is one (machine x MTBF regime) cell of the sweep.
type AdaptCell struct {
	Machine      string
	MTBFFrac     float64
	NodeMTBFS    float64
	ClusterMTBFS float64

	Statics       []AdaptStatic
	AdaptiveWallS float64
	BestStaticS   float64
	WorstStaticS  float64
	// VsBest and VsWorst are the adaptive mean wall divided by the
	// best/worst static mean wall (<= 1 means adaptive wins outright).
	VsBest  float64
	VsWorst float64

	// Adaptive-layer end state from the cell's last campaign.
	FinalInterval   int
	MTBFEstimateS   float64
	CadenceSwitches int
	Failures        int

	// BitIdentical reports that every faulted run in the cell — static
	// and adaptive alike — finished bit-identical to the fault-free
	// reference trajectory.
	BitIdentical bool
}

// AdaptbenchResult carries the probe quantities and the full sweep.
type AdaptbenchResult struct {
	Solver       string
	Procs        int
	Steps        int
	SeedInterval int
	Seeds        int

	// Per-machine probe measurements: bare per-step wall, one
	// checkpoint's write cost, and the fault-free supervised wall that
	// anchors the regimes.
	StepWallS map[string]float64
	DeltaS    map[string]float64
	RefWallS  map[string]float64

	Cells []AdaptCell

	// MaxVsBest is the worst cell's adaptive/best-static ratio (the
	// "never much worse than the oracle" criterion); MaxGainVsWorst the
	// best cell's 1 - adaptive/worst-static (the "clearly better than a
	// bad guess" criterion).
	MaxVsBest      float64
	MaxGainVsWorst float64
}

// ValidateAdaptbench checks a sweep configuration and returns an
// actionable error for each way the experiment cannot run.
func ValidateAdaptbench(cfg AdaptbenchConfig) error {
	if len(cfg.Machines) == 0 {
		return fmt.Errorf("bench: need at least one machine to sweep")
	}
	for _, name := range cfg.Machines {
		if _, _, err := clusterFor(name, cfg.Solver, cfg.Procs, cfg.Spares); err != nil {
			return err
		}
	}
	if cfg.Spares < cfg.Procs {
		return fmt.Errorf("bench: %d spares cannot cover %d ranks — every worker node carries a planned crash, so the harshest regime can burn the whole placement",
			cfg.Spares, cfg.Procs)
	}
	if cfg.Steps < 2 {
		return fmt.Errorf("bench: need at least two steps, got %d", cfg.Steps)
	}
	if cfg.DiskMBs <= 0 || math.IsNaN(cfg.DiskMBs) {
		return fmt.Errorf("bench: disk bandwidth %g MB/s must be positive — it prices the checkpoint writes", cfg.DiskMBs)
	}
	if len(cfg.StaticIntervals) < 2 {
		return fmt.Errorf("bench: need at least two static cadences to bracket the adaptive policy, got %d", len(cfg.StaticIntervals))
	}
	for _, k := range cfg.StaticIntervals {
		if k < 1 {
			return fmt.Errorf("bench: checkpoint interval %d must be at least one step", k)
		}
	}
	if cfg.SeedInterval < 1 {
		return fmt.Errorf("bench: the adaptive seed interval %d must be at least one step", cfg.SeedInterval)
	}
	if len(cfg.MTBFFracs) == 0 {
		return fmt.Errorf("bench: need at least one MTBF regime")
	}
	for _, f := range cfg.MTBFFracs {
		if f <= 0 || math.IsNaN(f) {
			return fmt.Errorf("bench: MTBF fraction %g must be positive — it scales the fault-free wall", f)
		}
	}
	if cfg.Seeds < 1 {
		return fmt.Errorf("bench: need at least one fault-plan seed per cell, got %d", cfg.Seeds)
	}
	return nil
}

// RunAdaptbench executes the sweep and renders the report.
func RunAdaptbench(cfg AdaptbenchConfig) (*AdaptbenchResult, *report.Table, error) {
	if err := ValidateAdaptbench(cfg); err != nil {
		return nil, nil, err
	}
	out := &AdaptbenchResult{
		Solver: cfg.Solver, Procs: cfg.Procs, Steps: cfg.Steps,
		SeedInterval: cfg.SeedInterval, Seeds: cfg.Seeds,
		StepWallS: map[string]float64{},
		DeltaS:    map[string]float64{},
		RefWallS:  map[string]float64{},
	}
	tbl := report.NewTable(
		fmt.Sprintf("Adaptbench: adaptive vs static checkpoint cadence — %s, P=%d (+%d spares), %d steps, %d seed(s)/cell",
			cfg.Solver, cfg.Procs, cfg.Spares, cfg.Steps, cfg.Seeds),
		"machine / node MTBF", "static walls (s)", "adaptive (s)", "vs best", "vs worst",
		"final interval", "campaign")

	for mi, name := range cfg.Machines {
		mach, newSolver, err := clusterFor(name, cfg.Solver, cfg.Procs, cfg.Spares)
		if err != nil {
			return nil, nil, err
		}

		// Probe: measure the bare per-step wall and one checkpoint's
		// virtual write cost (delta) on this machine, through the same
		// SimWriter pricing the adaptive runs use — so the static runs'
		// flat per-checkpoint charge and the adaptive runs' modeled
		// writes price the same event identically.
		stepWallS, _, deltaS, err := probeCheckpointCost(mach, cfg.Procs, 3, cfg.Solver, cfg.DiskMBs, ckpt.WriteLocal, newSolver)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: probe on %s: %w", name, err)
		}
		out.StepWallS[name] = stepWallS
		out.DeltaS[name] = deltaS

		base := supervisedConfig(mach, newSolver, cfg.Procs, cfg.Spares, cfg.Steps)
		base.CheckpointEvery = cfg.SeedInterval
		base.CheckpointCostS = deltaS
		base.Kind = cfg.Solver
		base.MaxRestarts = cfg.MaxRestarts

		// Fault-free supervised reference: anchors the MTBF regimes and
		// is the bit-identity baseline for every faulted run.
		ref, rerr := supervisor.Run(base)
		if rerr != nil {
			return nil, nil, fmt.Errorf("bench: supervised reference on %s: %w", name, rerr)
		}
		out.RefWallS[name] = ref.VirtualWall
		// Prime the detector past the checkpoint-inflated step boundary:
		// a sparse cadence makes the first checkpoint's delta-long gap
		// stand out against an otherwise tight heartbeat rhythm, and the
		// monitor must not read honest I/O as a stall. The threshold is
		// tightened below the default so the per-crash detection dead
		// time (which every cadence pays identically) does not swamp the
		// recompute differences the sweep is actually measuring; the
		// checkpoint gap still clears it several-fold.
		base.Heartbeat.InitialInterval = 2 * (ref.VirtualWall/float64(cfg.Steps) + deltaS)
		base.Heartbeat.Threshold = 4

		for fi, frac := range cfg.MTBFFracs {
			nodeMTBFS := frac * ref.VirtualWall
			cell := AdaptCell{
				Machine: name, MTBFFrac: frac,
				NodeMTBFS:    nodeMTBFS,
				ClusterMTBFS: nodeMTBFS / float64(cfg.Procs),
				BitIdentical: true,
			}
			// One planned crash per physical node on the first Spares
			// nodes (the workers plus the early spares), drawn from
			// Exp(nodeMTBF). Crash times are node-keyed and
			// attempt-relative, so a rank re-homed onto a planted spare
			// inherits that spare's hazard: the realized failure process
			// stays close to the constant-hazard renewal process Young's
			// formula models, instead of the declining hazard a
			// procs-only plan would give (each planted crash retires
			// with its node). Stopping at Spares planted nodes bounds
			// total crashes — each crash consumes one spare — so the
			// pool can never be exhausted regardless of cadence. The
			// same seed rebuilds the identical plan for every variant,
			// so all cadences face the same realized failure history.
			planFor := func(seed int64) simnet.Injector {
				p := fault.NewPlan(seed)
				for node := 0; node < cfg.Spares; node++ {
					p.CrashRandom(node, nodeMTBFS)
				}
				return p
			}
			staticSum := make([]float64, len(cfg.StaticIntervals))
			var adaptSum float64
			var lastAdaptive *supervisor.Result
			for si := 0; si < cfg.Seeds; si++ {
				seed := cfg.Seed + int64(100003*mi+1009*fi+si)
				for ki, k := range cfg.StaticIntervals {
					run := base
					run.Faults = planFor(seed)
					run.CheckpointEvery = k
					res, serr := supervisor.Run(run)
					if serr != nil {
						return nil, nil, fmt.Errorf("bench: %s frac %g static %d seed %d: %w", name, frac, k, si, serr)
					}
					staticSum[ki] += res.VirtualWall
					if !slices.EqualFunc(ref.FinalStates, res.FinalStates, bytes.Equal) {
						cell.BitIdentical = false
					}
				}
				var tbuf bytes.Buffer
				run := base
				run.Faults = planFor(seed)
				run.Trace = engine.NewTracer(&tbuf)
				// The adaptive run's writer prices each checkpoint itself,
				// in place of the static runs' flat charge.
				run.CheckpointCostS = 0
				run.SimDiskMBs = cfg.DiskMBs
				run.Adapt = &policy.Config{
					// The controller gets only an order-of-magnitude
					// prior (the regime's cluster MTBF); the live
					// estimate comes from the campaign's own failures.
					PriorMTBFS: nodeMTBFS / float64(cfg.Procs),
					// A demonstration campaign sees only a handful of
					// failures, so the estimator needs a fast learning
					// rate to move off the prior within one run; the
					// default suits long production campaigns.
					Alpha: 0.7,
				}
				res, serr := supervisor.Run(run)
				if serr != nil {
					return nil, nil, fmt.Errorf("bench: %s frac %g adaptive seed %d: %w", name, frac, si, serr)
				}
				adaptSum += res.VirtualWall
				if !slices.EqualFunc(ref.FinalStates, res.FinalStates, bytes.Equal) {
					cell.BitIdentical = false
				}
				cell.Failures += len(res.Failures)
				evs, everr := engine.ReadEvents(&tbuf)
				if everr != nil {
					return nil, nil, fmt.Errorf("bench: reading adaptive trace: %w", everr)
				}
				for _, e := range evs {
					if e.Ev == engine.EvPolicySwitch && e.Policy == "cadence" {
						cell.CadenceSwitches++
					}
				}
				lastAdaptive = res
			}

			cell.AdaptiveWallS = adaptSum / float64(cfg.Seeds)
			cell.BestStaticS, cell.WorstStaticS = math.Inf(1), 0
			var staticCol []string
			for ki, k := range cfg.StaticIntervals {
				mean := staticSum[ki] / float64(cfg.Seeds)
				cell.Statics = append(cell.Statics, AdaptStatic{IntervalSteps: k, MeanWallS: mean})
				cell.BestStaticS = math.Min(cell.BestStaticS, mean)
				cell.WorstStaticS = math.Max(cell.WorstStaticS, mean)
				staticCol = append(staticCol, fmt.Sprintf("%d:%.4g", k, mean))
			}
			cell.VsBest = cell.AdaptiveWallS / cell.BestStaticS
			cell.VsWorst = cell.AdaptiveWallS / cell.WorstStaticS
			cell.FinalInterval = lastAdaptive.FinalInterval
			cell.MTBFEstimateS = lastAdaptive.MTBFEstimateS
			out.Cells = append(out.Cells, cell)
			out.MaxVsBest = math.Max(out.MaxVsBest, cell.VsBest)
			out.MaxGainVsWorst = math.Max(out.MaxGainVsWorst, 1-cell.VsWorst)

			campaign := fmt.Sprintf("%d failures, %d retunes", cell.Failures, cell.CadenceSwitches)
			if !cell.BitIdentical {
				campaign += ", NOT bit-identical"
			}
			tbl.AddRow(
				fmt.Sprintf("%s / %.3gs", name, nodeMTBFS),
				strings.Join(staticCol, "  "),
				fmt.Sprintf("%.4g", cell.AdaptiveWallS),
				fmt.Sprintf("%.3f", cell.VsBest),
				fmt.Sprintf("%.3f", cell.VsWorst),
				fmt.Sprintf("%d", cell.FinalInterval),
				campaign,
			)
		}
	}
	for _, c := range out.Cells {
		if !c.BitIdentical {
			return out, tbl, fmt.Errorf("bench: a recovered trajectory in cell %s/%g is NOT bit-identical to the reference", c.Machine, c.MTBFFrac)
		}
	}
	return out, tbl, nil
}

func runAdaptbench(cfg AdaptbenchConfig, w io.Writer) (any, error) {
	res, tbl, err := RunAdaptbench(cfg)
	if err != nil {
		return nil, err
	}
	tbl.Write(w)
	fmt.Fprintf(w, "\nadaptive vs best static, worst cell: %+.1f%%; vs worst static, best cell: %.1f%% faster\n",
		100*(res.MaxVsBest-1), 100*res.MaxGainVsWorst)
	return res, nil
}
