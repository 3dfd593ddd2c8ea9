#include "support/capture.hpp"

#include <utility>

namespace emask::core {

analysis::TraceSet capture_set(BatchRunner& runner, std::size_t count,
                               const InputGenerator& generator) {
  analysis::TraceSet set;
  runner.capture_each(
      count, generator,
      [&set](std::size_t, const BatchInput& input, EncryptionRun& run) {
        set.add(input.plaintext, std::move(run.trace));
      });
  return set;
}

analysis::TraceSet capture_set(BatchRunner& runner,
                               const std::vector<BatchInput>& inputs) {
  return capture_set(runner, inputs.size(),
                     [&inputs](std::size_t i) { return inputs[i]; });
}

}  // namespace emask::core
