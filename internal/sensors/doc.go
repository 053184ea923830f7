// Package sensors models the heat-sink temperature sensor of §4.3.2 of
// the EVAL paper. Real sensors quantize and lag; this package makes those
// imperfections explicit so the controller sees what hardware would
// deliver, not the simulator's exact state.
//
// The pieces map to the paper's monitoring hardware:
//
//   - Quantizer: additive noise plus step quantization.
//   - THSensor: the slow heat-sink temperature sensor whose 2-3 s
//     refresh period sets the outer loop of AdaptSteady (§4.1 notes the
//     heat-sink time constant is tens of seconds) and whose refreshes
//     the Figure 6 timeline records.
//
// internal/timeline consumes these models to reproduce Figure 6. The
// per-subsystem overheat, core power and error-rate monitors of §4.3.2
// are represented by internal/adapt's constraint checks, which set the
// violation bits that retuning cycles react to (§4.3.3).
package sensors
