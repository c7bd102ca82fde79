// Statistics primitives: per-epoch counter deltas and sample statistics.
// Epochs are closed at barriers; the model library prices epoch deltas to
// produce the Figure 6 / Figure 7 series.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstdint>
#include <vector>

#include "src/common/metrics.h"

namespace millipage {

// One closed epoch (barrier-to-barrier interval) for one host.
struct EpochRecord {
  uint32_t epoch = 0;
  uint32_t host = 0;
  // The host's registry counters at the epoch's closing barrier minus
  // those at the previous one.
  CounterValues delta;
};

// Simple descriptive statistics over a sample vector.
struct SampleStats {
  double mean = 0;
  double median = 0;
  double min = 0;
  double max = 0;
  double stddev = 0;

  static SampleStats FromSamples(std::vector<double> samples);
};

}  // namespace millipage

#endif  // SRC_COMMON_STATS_H_
