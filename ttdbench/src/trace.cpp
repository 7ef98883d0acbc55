#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>
#include <time.h>

namespace ttdbench {

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
cpuS()
{
    timespec ts {};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

Usage
fromRusage(int who)
{
    struct rusage ru {};
    ::getrusage(who, &ru);
    Usage u;
    u.userS = static_cast<double>(ru.ru_utime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sysS = static_cast<double>(ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minflt = ru.ru_minflt;
    u.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
    return u;
}

} // namespace

Usage
Usage::self()
{
    return fromRusage(RUSAGE_SELF);
}

Usage
Usage::children()
{
    return fromRusage(RUSAGE_CHILDREN);
}

int
SpanLog::open(const char *name, int parent, int cell)
{
    return add(name, nowS(), 0.0, parent, cell);
}

void
SpanLog::close(int index)
{
    spans_[static_cast<std::size_t>(index)].end = nowS();
}

int
SpanLog::add(const char *name, double start, double end, int parent,
             int cell)
{
    spans_.push_back(Span{name, start, end, parent, cell});
    return static_cast<int>(spans_.size()) - 1;
}

std::string
SpanLog::selfTimeJson() const
{
    // Children may overlap (cells in flight at once), so a span's self
    // time subtracts the union of its children's intervals.
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});
    }
    std::vector<double> child_s(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (const auto &[a, b] : iv) {
            if (a > hi) {
                covered += std::max(0.0, hi - lo);
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        child_s[i] = covered + std::max(0.0, hi - lo);
    }
    struct Row
    {
        long count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Row &r = rows[spans_[i].name];
        const double d = spans_[i].end - spans_[i].start;
        ++r.count;
        r.total += d;
        r.self += d - child_s[i];
    }
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[name, r] : rows) {
        os << (first ? "" : ", ") << jsonString(name)
           << ": {\"count\": " << r.count
           << ", \"total_s\": " << jsonNumber(r.total)
           << ", \"self_s\": " << jsonNumber(r.self) << "}";
        first = false;
    }
    os << "}";
    return os.str();
}

void
SpanLog::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write span log " + path);
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": " << jsonString(s.name)
            << ", \"start_s\": " << jsonNumber(s.start - t0)
            << ", \"end_s\": " << jsonNumber(s.end - t0)
            << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell
            << "}\n";
    }
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[32];
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
metricsJson(const Metrics &metrics)
{
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << jsonString(metrics[i].name)
           << ": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    }
    os << "}";
    return os.str();
}

void
addPercentiles(Metrics &out, const std::string &prefix,
               const std::vector<double> &samples, const std::string &unit)
{
    out.push_back({prefix + ".p50", percentile(samples, 0.5), unit});
    out.push_back({prefix + ".p80", percentile(samples, 0.8), unit});
    out.push_back(
        {prefix + ".n", static_cast<double>(samples.size()), "count"});
}

} // namespace ttdbench
