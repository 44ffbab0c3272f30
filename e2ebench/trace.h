/**
 * @file
 * The traced run's span recorder. Spans are recorded by the benchmark
 * around its own calls into each layer (never inside the program),
 * kept in memory, and written out as JSONL when the run ends.
 *
 * Self time of a span is its duration minus the union of the
 * intervals its child spans cover; the roll-up sums self time per
 * span name, which is the per-layer attribution.
 */

#ifndef TBD_E2EBENCH_TRACE_H
#define TBD_E2EBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

using SpanId = std::uint64_t;

struct SpanRecord
{
    SpanId id = 0;
    SpanId parent = 0; ///< 0 = root
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    std::int64_t item = -1; ///< cell / request / step id (-1 = none)
    std::uint32_t thread = 0;
};

/** Per-name aggregate of a span set. */
struct SpanStats
{
    std::int64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
    std::vector<double> durationsMs;
};

class Tracer
{
  public:
    Tracer();

    /** Microseconds since the tracer was created. */
    double nowUs() const;

    /** Allocate an id for a span that is still open. */
    SpanId openId() { return next_.fetch_add(1) + 1; }

    /** Store a finished span. */
    void record(SpanRecord span);

    /** All spans recorded so far, in recording order. */
    std::vector<SpanRecord> spans() const;

    /** Per-name roll-up over the spans whose root is `root`
     *  (0 = every span). */
    std::map<std::string, SpanStats> rollup(SpanId root = 0) const;

    /**
     * Share of the summed duration of the spans named `name` that their
     * children's interval unions cover (1 - self/total).
     */
    double coverage(const std::string &name) const;

    /** Write every span as one JSON object per line. */
    bool writeJsonl(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    std::atomic<SpanId> next_{0};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** RAII span: opens at construction, records at destruction. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, SpanId parent = 0,
         std::int64_t item = -1);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    SpanId id() const { return id_; }

  private:
    Tracer &tracer_;
    const char *name_;
    SpanId id_;
    SpanId parent_;
    std::int64_t item_;
    double startUs_;
};

/** A Span when `tracer` is set, nothing otherwise. */
class MaybeSpan
{
  public:
    MaybeSpan(Tracer *tracer, const char *name, SpanId parent = 0,
              std::int64_t item = -1)
    {
        if (tracer != nullptr)
            span_.emplace(*tracer, name, parent, item);
    }
    SpanId id() const { return span_ ? span_->id() : 0; }

  private:
    std::optional<Span> span_;
};

/** Small stable id of the calling thread (for the span dump). */
std::uint32_t threadTag();

} // namespace e2e

#endif // TBD_E2EBENCH_TRACE_H
