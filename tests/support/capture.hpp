// Whole-batch capture for tests that compare batches trace by trace.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/trace_io.hpp"
#include "core/batch_runner.hpp"

namespace emask::core {

/// Captures `count` traces through `runner.capture_each`, in index order,
/// keyed by plaintext.
[[nodiscard]] analysis::TraceSet capture_set(BatchRunner& runner,
                                             std::size_t count,
                                             const InputGenerator& generator);

/// One trace per input, in order.
[[nodiscard]] analysis::TraceSet capture_set(
    BatchRunner& runner, const std::vector<BatchInput>& inputs);

}  // namespace emask::core
