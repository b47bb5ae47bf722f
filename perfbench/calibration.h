#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

#include <cstdint>

// The host-speed ruler of the benchmark. Every timed repetition is divided
// by the time of this fixed kernel measured around it, so metrics read in
// seconds at the kernel's nominal speed instead of at whatever speed the
// shared host happens to run at that moment.
//
// FROZEN: the kernel, its size and kKernelNominalSeconds must never change.
// Editing any of them rescales every normalized metric and breaks the
// comparison with earlier runs. The kernel uses no library code, so no
// change to the program under test can move it.

namespace perfbench {

/// K: the kernel's nominal duration. Normalized metric = wall / kernel * K.
inline constexpr double kKernelNominalSeconds = 0.020;

/// Wall seconds of one run of the fixed hash-and-sort kernel.
double TimeKernel();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
