// Minimal leveled logger.
//
// The simulators run inside google-benchmark loops, so logging must be
// cheap when disabled: level filtering happens before any formatting.
#pragma once

#include <iostream>
#include <sstream>
#include <string>

namespace drift::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// RAII message builder: accumulates into a stream, emits on destruction.
class Message {
 public:
  Message(Level level, const char* tag);
  Message(const Message&) = delete;
  Message& operator=(const Message&) = delete;
  ~Message();

  template <typename T>
  Message& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  Level level_;
  std::ostringstream stream_;
};

}  // namespace drift::log

#define DRIFT_LOG_DEBUG(tag) ::drift::log::Message(::drift::log::Level::kDebug, tag)
#define DRIFT_LOG_INFO(tag) ::drift::log::Message(::drift::log::Level::kInfo, tag)
#define DRIFT_LOG_WARN(tag) ::drift::log::Message(::drift::log::Level::kWarn, tag)
#define DRIFT_LOG_ERROR(tag) ::drift::log::Message(::drift::log::Level::kError, tag)
