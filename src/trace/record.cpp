#include "trace/record.hpp"

#include <algorithm>

#include "common/csv.hpp"
#include "common/error.hpp"

namespace hemp {

std::size_t write_trace_csv(const IrradianceTrace& trace, Seconds duration,
                            Seconds step, const std::string& path) {
  HEMP_REQUIRE(duration.value() > 0.0, "write_trace_csv: non-positive duration");
  HEMP_REQUIRE(step.value() > 0.0 && step <= duration,
               "write_trace_csv: step must be in (0, duration]");
  CsvWriter csv(path, {"time_s", "irradiance"});
  double last_t = -1.0;
  for (long i = 0;; ++i) {
    // Clamp the final sample onto `duration` exactly; skip any duplicate the
    // clamping could create so the file stays strictly increasing in time
    // (the contract from_csv enforces).
    const double t = std::min(static_cast<double>(i) * step.value(),
                              duration.value());
    if (t <= last_t) break;
    csv.row({t, std::clamp(trace.at(Seconds(t)), 0.0, 1.0)});
    last_t = t;
    if (t >= duration.value()) break;
  }
  csv.close();
  return csv.rows_written();
}

}  // namespace hemp
