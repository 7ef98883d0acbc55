/**
 * @file
 * Measurement plumbing shared by every workload: a monotonic clock,
 * percentile summaries, process counters from getrusage(), an in-memory
 * span log with self-time accounting, and the metric list a run prints.
 */

#ifndef TTDBENCH_TRACE_HPP
#define TTDBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ttdbench {

/** Seconds on the monotonic clock (steady_clock). */
inline double
nowS()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/** CPU seconds (user + system) this process has used, all threads. */
double cpuS();

/** Nearest-rank percentile of @p v (q in [0,1]); 0 for an empty list. */
double percentile(std::vector<double> v, double q);

/** Median (nearest-rank p50). */
inline double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

/** CPU times and fault counts of this process or its reaped children. */
struct Usage
{
    double userS = 0.0;
    double sysS = 0.0;
    long minflt = 0;
    double maxRssMb = 0.0;

    static Usage self();
    static Usage children();
};

/** One timed interval. parent is an index into the log, -1 for roots;
 *  cell is the workload's cell index, -1 when not cell-scoped. */
struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int cell = -1;
};

/**
 * Spans kept in memory while a traced run executes and written out when
 * it ends. Layers the benchmark cannot see into from outside (env
 * stepping under an epoch) are recorded as individual child spans too,
 * so self time = span duration minus the time its children cover.
 */
class SpanLog
{
  public:
    /** Open a span now; returns its index. */
    int open(const char *name, int parent, int cell);
    void close(int index);
    /** Record an already-finished interval. */
    int add(const char *name, double start, double end, int parent,
            int cell);

    const std::vector<Span> &spans() const { return spans_; }

    /** Per span name: count, total and self seconds, as a JSON object. */
    std::string selfTimeJson() const;

    /** Every span, one JSON object per line. */
    void writeJsonl(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** A named metric with its unit, in print order. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/** Render @p metrics as {"name": {"value": v, "unit": u}, ...}. */
std::string metricsJson(const Metrics &metrics);

/** Shortest round-tripping decimal text for @p v (JSON number). */
std::string jsonNumber(double v);

/** JSON string literal with escapes. */
std::string jsonString(const std::string &s);

/** Append p50/p80/n of @p samples under "<prefix>.p50" etc. */
void addPercentiles(Metrics &out, const std::string &prefix,
                    const std::vector<double> &samples,
                    const std::string &unit);

} // namespace ttdbench

#endif // TTDBENCH_TRACE_HPP
