#include "accel/timeline.hpp"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace drift::accel {

TimelineResult build_timeline(const std::vector<TimelineLayer>& layers) {
  TimelineResult result;
  result.entries.reserve(layers.size());

  std::int64_t prev_dram_end = 0;
  std::int64_t prev_compute_start = 0;
  std::int64_t prev_compute_end = 0;
  double dram_total = 0.0, dram_exposed = 0.0;

  for (const TimelineLayer& layer : layers) {
    DRIFT_CHECK(layer.compute_cycles >= 0 && layer.dram_cycles >= 0,
                "negative cycles");
    TimelineEntry e;
    e.name = layer.name;
    e.dram_start = std::max(prev_dram_end, prev_compute_start);
    e.dram_end = e.dram_start + layer.dram_cycles;
    e.compute_start = std::max(e.dram_end, prev_compute_end);
    e.compute_end = e.compute_start + layer.compute_cycles;

    dram_total += static_cast<double>(layer.dram_cycles);
    // The exposed portion is whatever the compute engine had to wait
    // beyond the previous layer's compute end.
    dram_exposed +=
        static_cast<double>(std::max<std::int64_t>(
            e.compute_start - prev_compute_end, 0));

    prev_dram_end = e.dram_end;
    prev_compute_start = e.compute_start;
    prev_compute_end = e.compute_end;
    result.entries.push_back(std::move(e));
  }
  result.total_cycles = prev_compute_end;
  result.overlap_fraction =
      dram_total > 0.0 ? 1.0 - dram_exposed / dram_total : 1.0;

  DRIFT_OBS_COUNT("timeline.builds", 1);
  DRIFT_OBS_COUNT("timeline.total_cycles", result.total_cycles);
  // Render the double-buffered schedule on the simulated-cycle tracks
  // (pid 1, 1 cycle == 1 "µs") so chrome://tracing shows DMA prefetch
  // overlapping compute exactly as the model scheduled it.
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    const std::uint32_t dram_tid = tracer.sim_track("timeline.dram");
    const std::uint32_t compute_tid = tracer.sim_track("timeline.compute");
    for (const TimelineEntry& e : result.entries) {
      tracer.complete(e.name + " [dram]", dram_tid, e.dram_start,
                      e.dram_end - e.dram_start);
      tracer.complete(e.name + " [compute]", compute_tid, e.compute_start,
                      e.compute_end - e.compute_start);
    }
  }
  return result;
}

std::string TimelineResult::gantt(std::size_t width) const {
  if (entries.empty() || total_cycles == 0) return "";
  std::ostringstream os;
  const double scale = static_cast<double>(width) /
                       static_cast<double>(total_cycles);
  for (const TimelineEntry& e : entries) {
    std::string row(width + 1, ' ');
    const auto mark = [&](std::int64_t from, std::int64_t to, char ch) {
      auto a = static_cast<std::size_t>(from * scale);
      auto b = std::max(static_cast<std::size_t>(to * scale), a + 1);
      for (std::size_t i = a; i < std::min(b, row.size()); ++i) {
        row[i] = ch;
      }
    };
    mark(e.dram_start, e.dram_end, '-');      // DMA occupancy
    mark(e.compute_start, e.compute_end, '#');  // array occupancy
    os.width(18);
    os << std::left << e.name.substr(0, 17) << '|' << row << "|\n";
  }
  return os.str();
}

}  // namespace drift::accel
