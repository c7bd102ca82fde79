#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

namespace millipage {

SampleStats SampleStats::FromSamples(std::vector<double> samples) {
  SampleStats s;
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  s.median = samples[samples.size() / 2];
  double sum = 0;
  for (double v : samples) {
    sum += v;
  }
  s.mean = sum / static_cast<double>(samples.size());
  double var = 0;
  for (double v : samples) {
    var += (v - s.mean) * (v - s.mean);
  }
  s.stddev = std::sqrt(var / static_cast<double>(samples.size()));
  return s;
}

}  // namespace millipage
