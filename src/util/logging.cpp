#include "util/logging.hpp"

#include <atomic>
#include <iostream>
#include <string>

namespace autocat {

namespace {

std::atomic<LogLevel> g_level{LogLevel::Info};

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "DEBUG";
      case LogLevel::Info: return "INFO ";
      case LogLevel::Warn: return "WARN ";
      case LogLevel::Error: return "ERROR";
      default: return "?????";
    }
}

} // namespace

void
Log::setLevel(LogLevel level)
{
    g_level.store(level);
}

LogLevel
Log::level()
{
    return g_level.load();
}

bool
Log::enabled(LogLevel level)
{
    return static_cast<int>(level) >= static_cast<int>(g_level.load());
}

void
Log::write(LogLevel level, const std::string &msg)
{
    if (!enabled(level) || level == LogLevel::Off)
        return;
    // One write per line: std::cerr is unbuffered, so piecewise output
    // from processes sharing a stderr would interleave mid-line.
    std::string line = "[autocat ";
    line += levelName(level);
    line += "] ";
    line += msg;
    line += '\n';
    std::cerr.write(line.data(), static_cast<std::streamsize>(line.size()));
}

} // namespace autocat
