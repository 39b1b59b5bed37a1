// First-order output-fidelity parameters. The paper motivates placement
// quality partly through fidelity ("circuits with more remote interactions
// suffer ... reduced fidelity"); these factors make that cost measurable.
// The network simulator multiplies each job's fidelity estimate by one
// factor per operation. A remote gate pays f_2q * f_measure * f_1q for the
// cat-comm pipeline times its entangled pair's fidelity: f_epr per link,
// raised to the hop count, scaled by calibration drift and lifted by
// purification (NetworkSimulator's remote-gate start).
//
// Defaults are typical published NISQ numbers (two-qubit error ~1%,
// measurement error ~2%, entangled-pair fidelity ~0.9); override via
// CloudConfig for sensitivity studies.
#pragma once

namespace cloudqc {

struct FidelityModel {
  double f_1q = 0.9995;   // single-qubit gate
  double f_2q = 0.99;     // local two-qubit gate
  double f_measure = 0.98;
  /// Fidelity of one heralded EPR pair across a single link.
  double f_epr = 0.9;
};

}  // namespace cloudqc
