/**
 * @file
 * The phases of a workload, in this order: the figure and distributed
 * sweeps, open-loop serving, and (traced runs only) functional-engine
 * training. Each phase has
 *
 *  - setupRound(): the whole set-up from a clean state; the benchmark
 *    runs it several times and reports the median as setup_s;
 *  - measure steps: untraced units of work (sweep passes, a chunk of
 *    the serve schedule) that the benchmark interleaves, so every
 *    end-to-end metric samples the whole run; finishMeasure() then
 *    reports the end-to-end metrics;
 *  - traced(): the traced run that times each layer from benchmark
 *    code and reports the per-layer metrics.
 *
 * Every phase checks the program's outputs as it goes and records any
 * mismatch as a failed operation in the Report.
 */

#ifndef TBD_E2EBENCH_PHASES_H
#define TBD_E2EBENCH_PHASES_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace e2e {

/** What every phase shares. */
struct Context
{
    const Options &options;
    Report &report;
    tbd::util::ThreadPool &pool; ///< 2 workers: set-up, checks, traced run
};

/** Figure sweep (139 cells) and the distributed grid (432 cells). */
class SweepPhase
{
  public:
    explicit SweepPhase(Context &ctx);
    ~SweepPhase();

    SweepPhase(const SweepPhase &) = delete;
    SweepPhase &operator=(const SweepPhase &) = delete;

    void setupRound();
    /** Untraced passes for about `ms` (the run's first unit: at least one). */
    void measureUnit(double ms);
    void finishMeasure();
    void traced(double seconds, Tracer &tracer);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Open-loop serving at 250 and 500 requests/s, and closed-loop rounds
 * of the hot set that time the server's CPU per cache hit.
 */
class ServePhase
{
  public:
    /** `seconds` of schedule, half at each rate. */
    ServePhase(Context &ctx, double seconds);
    ~ServePhase();

    ServePhase(const ServePhase &) = delete;
    ServePhase &operator=(const ServePhase &) = delete;

    void setupRound();
    /** Chunks of the schedule (about one second each). */
    std::size_t chunks() const;
    void measureChunk(std::size_t chunk);
    /** Hot rounds for about `ms`, as measureUnit. */
    void measureHotRounds(double ms);
    void finishMeasure();
    void traced(Tracer &tracer);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Single-thread FP32 training of TinyResNet and TinySeq2Seq. */
class TrainPhase
{
  public:
    explicit TrainPhase(Context &ctx);
    ~TrainPhase();

    TrainPhase(const TrainPhase &) = delete;
    TrainPhase &operator=(const TrainPhase &) = delete;

    void setupRound();
    void traced(double seconds, Tracer &tracer);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace e2e

#endif // TBD_E2EBENCH_PHASES_H
