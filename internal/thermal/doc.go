// Package thermal implements the steady-state temperature model of §4.1:
// each subsystem sits at T = TH + Rth * (Pdyn + Psta) above the common heat
// sink (Eq. 6), where its static power in turn depends on its temperature
// (Eqs. 8-9), so the (T, Psta, Vt) system is solved by fixed-point
// iteration exactly as the paper prescribes ("these equations form a
// feedback system and need to be solved iteratively").
//
// The heat-sink temperature TH itself rises with the core's total power —
// the slow (seconds-scale) outer feedback the paper's controller samples
// with a sensor every 2-3 s.
//
// # Solving many operating points
//
// Two tiers of solver exist, slower and more authoritative first:
//
//   - Model.CoreSteady / Model.SubsystemSteady: stateless cold-start
//     solves with the undamped inner contraction. These are the reference
//     semantics everything else is tested against, and
//     Model.SubsystemSteady is the per-combo probe inside the adaptation
//     scans.
//   - Solver.CoreSteady: reusable scratch, cross-call warm starts, and
//     Aitken Δ² acceleration; certified by the same |next-t| < TolK
//     residual, so answers agree with the reference within a few TolK but
//     not bit for bit. With DisableAcceleration it cold-starts and runs
//     Model.SubsystemSteady's inner loop, retracing Model.CoreSteady.
//
// # Which tier each adaptation path uses
//
// The warm tier honors the same TolK tolerance but lands on slightly
// different iterates (order 1e-3 K). The adaptation layer feeds these
// temperatures into snap-to-grid frequency decisions, where a ~1e-3
// perturbation flips a snap with probability of the same order, and the
// experiment harness performs ~10^5-10^6 steady solves per run. So the
// per-combo probes inside the Freq/Power scans pay the exact cold-start
// Model.SubsystemSteady, and their speed comes from exact restructuring
// (pruning, memoization, batched PE tables) instead.
//
// Whole-core solves do use the warm tier: adapt.Core.Evaluate (every
// retune probe) drives the core's private, warm-started and accelerated
// Solver, and core.runFixed holds one Solver per application run. An
// Evaluate result therefore depends, in its last digits, on the core's
// previous solve.
package thermal
