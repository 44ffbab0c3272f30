/**
 * @file
 * Shared plumbing of the end-to-end benchmark: options, host-time
 * clocks, order statistics, the metric/failure report that prints the
 * final JSON line, process memory and provenance.
 *
 * Everything here is benchmark code; it calls the TBD libraries only
 * through their public headers.
 */

#ifndef TBD_E2EBENCH_HARNESS_H
#define TBD_E2EBENCH_HARNESS_H

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/stats.h"

namespace e2e {

/** Which store/cache state the simulator phases start from. */
enum class Mode
{
    Cold, ///< fresh store, cleared memos before every pass
    Warm, ///< store filled during set-up; memos cleared per pass
};

/** Fault the self-tests inject into an observed output. */
enum class Inject
{
    None,
    Fingerprint, ///< flip one bit of one sweep cell's fingerprint
    Status,      ///< rewrite one served response's status
};

struct Options
{
    Mode mode = Mode::Cold;
    std::string workload = "cold";
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    bool smoke = false; ///< tiny pass counts, for harness self-tests
    Inject inject = Inject::None;
    std::string goldenDir = "tests/golden";
    std::string workDir = ".bench_build/e2ebench-work";
    std::string traceOut; ///< JSONL span dump path (trace runs)
    std::string source;   ///< source-tree stamp from the launcher
};

using Clock = std::chrono::steady_clock;

/** Milliseconds between two instants. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Milliseconds since `start`. */
inline double
msSince(Clock::time_point start)
{
    return msBetween(start, Clock::now());
}

/** CPU time of `clock` in milliseconds. */
inline double
cpuMs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

/**
 * CPU time used by every thread of this process, in milliseconds.
 * Unlike wall time it does not count the time other tenants of a
 * shared host hold the CPUs or the time spent waiting for I/O, so the
 * gated timings use it.
 */
inline double
processCpuMs()
{
    return cpuMs(CLOCK_PROCESS_CPUTIME_ID);
}

/** CPU time used by the calling thread, in milliseconds. */
inline double
threadCpuMs()
{
    return cpuMs(CLOCK_THREAD_CPUTIME_ID);
}

/** util::percentile at q in [0, 1]; 0 for an empty sample. */
inline double
quantile(std::vector<double> values, double q)
{
    return values.empty() ? 0.0
                          : tbd::util::percentile(std::move(values), 100.0 * q);
}

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Bitwise equality of two double sequences. */
inline bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/** "name: n samples, min/p10/p25/p50/p75/p90/max ..." for the notes. */
std::string distribution(const std::string &name,
                         const std::vector<double> &values);

/** Deterministic 64-bit mixer for deriving sub-seeds. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/**
 * Collects metrics, operation counts and failures, and prints them:
 * a readable table on stdout, then one JSON line as the last line.
 */
class Report
{
  public:
    /** Record one metric with its unit and sample count. */
    void metric(const std::string &name, double value,
                const std::string &unit, std::int64_t samples);

    /** Count operations attempted (cells, requests, steps). */
    void attempt(std::int64_t n = 1) { attempted_ += n; }

    /** Record one failed correctness check. */
    void fail(const std::string &what);

    /** A free-form line printed above the metric table. */
    void note(const std::string &line);

    /**
     * Print everything; the JSON object is the last stdout line.
     * @return the process exit code (non-zero when any check failed).
     */
    int finish() const;

  private:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::int64_t samples = 0;
    };
    std::vector<Entry> metrics_;
    std::vector<std::string> notes_;
    std::vector<std::string> failures_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
};

/** Resident-set high-water mark of this process, in MiB. */
double peakRssMb();

/**
 * Reset the resident-set high-water mark to the current RSS (writes
 * "5" to /proc/self/clear_refs), so a later peakRssMb() covers only
 * what follows. Returns false where the kernel refuses.
 */
bool resetPeakRss();

/** Empty directory at `path` (removing whatever was there). */
void freshDir(const std::string &path);

/** Remove `path` recursively; errors are ignored. */
void removeDir(const std::string &path);

/** One line of run provenance (build type, SIMD tier, nproc, ...). */
std::string provenance(const Options &options);

/** True when the binary was built as Release. */
bool releaseBuild();

} // namespace e2e

#endif // TBD_E2EBENCH_HARNESS_H
