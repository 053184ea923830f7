// Package timeline is a discrete-event simulation of the §4.3.3
// controller system at work, reproducing the paper's Figure 6: it shows
// the EVAL control loop operating in time rather than in steady state.
//
// Application phases arrive with ~120 ms dwell times; the Sherwood-style
// BBV detector (internal/phase) classifies each interval; new phases
// trigger the measurement window, the controller routines (one fuzzy
// evaluation per subsystem, microseconds), the working-point transition
// (PLL relock, voltage ramps), and the retuning cycles of §4.3.3;
// recurring phases reuse their saved configuration instead of re-running
// the controller; and the heat-sink sensor (internal/sensors) refreshes
// every few seconds, each refresh recorded with its quantized, noisy
// reading.
//
// The simulation accounts for where the time goes — controller compute,
// actuation transitions, retune cycles, stable execution — which is the
// paper's argument that adapting at phase boundaries has negligible
// overhead (measured here at ~0.013% of execution; the paper says
// "minimal"). EXPERIMENTS.md records the Figure 6 numbers this package
// produces via examples/adaptive and BenchmarkTimeline.
package timeline
