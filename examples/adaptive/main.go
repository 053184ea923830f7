// Adaptive: the Figure 6 timeline — what the controller system actually
// does at run time.
//
// This example runs internal/timeline on one chip: execution intervals
// drawn from an application's phases, which the Sherwood-style detector
// recognizes from basic-block vectors. New phases trigger the fuzzy
// controller (trained here on a software model of this chip, as the
// manufacturer would); recurring phases reuse their saved configuration;
// hardware retuning cycles trim each configuration against the real
// sensors; and the heat-sink sensor refreshes every few seconds.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/phase"
	"repro/internal/timeline"
	"repro/internal/workload"
)

func main() {
	sim, err := core.NewSimulator(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Field-side chip, and its manufacturer-side controller training: the
	// tester measures the chip's per-subsystem Vt0 and populates its fuzzy
	// controllers by running the Exhaustive algorithm on a software model
	// of this chip (§4.3.1).
	chip := sim.Chip(7)
	cpu, err := sim.BuildCore(chip, core.TSASVQFU)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultExperimentConfig()
	cfg.Training.Examples = 800
	fmt.Println("training this chip's fuzzy controllers (manufacturer-side, once per die)...")
	solver, err := adapt.TrainFuzzySolver([]*adapt.Core{cpu}, cfg.Training)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-> %d controllers ready (~%d KB of rules; §5 reports ~120 KB)\n\n",
		solver.ControllerCount(), solver.ControllerCount()*25*8*8/1024)
	app, err := workload.ByName("gcc")
	if err != nil {
		log.Fatal(err)
	}

	// Run long enough to cover one heat-sink sensor refresh.
	tcfg := timeline.DefaultConfig()
	tcfg.DurationMS = 1.2 * phase.THRefreshS * 1000
	events, sum, err := timeline.Run(sim, cpu, app, solver, tcfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("t(ms)    phase  event        f(GHz)  detail")
	for _, ev := range events {
		detail := ""
		switch ev.Kind {
		case timeline.EventNewPhase:
			// ~20 us of counter measurement, 6 us of controller, <=10 us
			// transition (Figure 6), then retuning cycles.
			detail = fmt.Sprintf("measure %.0fus + controller %.0fus + transition %.0fus; outcome=%v (%d retune steps)",
				phase.MeasureUS, phase.ControllerUS, phase.TransitionUS, ev.Outcome, ev.RetuneSteps)
		case timeline.EventReusePhase:
			detail = "reuse saved configuration"
		case timeline.EventTHRefresh:
			detail = fmt.Sprintf("heat-sink sensor reads %.1f K", ev.SensedTHK)
		}
		line := fmt.Sprintf("%7.0f  %5d  %-11v  %6.2f  %s", ev.TimeMS, ev.PhaseID, ev.Kind, ev.FCore*4, detail)
		fmt.Println(strings.TrimRight(line, " "))
	}

	fmt.Printf("\n%d intervals over %.0f ms: %d new phases, %d reused, %d with a violation; %.1f%% of intervals in known phases\n",
		sum.Intervals, sum.DurationMS, sum.NewPhases, sum.ReusedPhases, sum.Violations, sum.StablePhaseFrac*100)
	fmt.Printf("mean f %.2f GHz; adaptation overhead %.4f%% of execution (%.4f%% per phase change)\n",
		sum.MeanFCore*4, sum.OverheadFrac*100, phase.AdaptationOverheadFraction()*100)
	fmt.Printf("heat-sink sensor refresh: every %.1f s; retuning step: %.0f ms per violation probe\n",
		phase.THRefreshS, phase.RetuneStepMS)
}
