#include "util/logging.hpp"

namespace drift::log {
namespace {

/// Messages below this level are discarded.
constexpr Level kThreshold = Level::kWarn;

const char* level_name(Level level) {
  switch (level) {
    case Level::kDebug: return "DEBUG";
    case Level::kInfo: return "INFO";
    case Level::kWarn: return "WARN";
    case Level::kError: return "ERROR";
    case Level::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

Message::Message(Level level, const char* tag)
    : enabled_(level >= kThreshold && level != Level::kOff), level_(level) {
  if (enabled_) stream_ << "[" << level_name(level_) << "] [" << tag << "] ";
}

Message::~Message() {
  if (enabled_) {
    stream_ << '\n';
    // drift-lint: allow(logging) — this is the logger's terminal sink;
    // every other module must reach stderr through this line.
    std::cerr << stream_.str();
  }
}

}  // namespace drift::log
