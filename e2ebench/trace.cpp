#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace e2e {

namespace {

/** Length of the union of [start, end) intervals clipped to [lo, hi). */
double
unionLength(std::vector<std::pair<double, double>> intervals, double lo,
            double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double cursor = lo;
    for (auto [s, e] : intervals) {
        s = std::max(s, cursor);
        e = std::min(e, hi);
        if (e > s) {
            covered += e - s;
            cursor = e;
        }
    }
    return covered;
}

} // namespace

std::uint32_t
threadTag()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t tag = next.fetch_add(1);
    return tag;
}

Tracer::Tracer() : epoch_(Clock::now())
{
    spans_.reserve(1 << 16);
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
}

void
Tracer::record(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, SpanStats>
Tracer::rollup(SpanId root) const
{
    const std::vector<SpanRecord> all = spans();
    std::unordered_map<SpanId, const SpanRecord *> by_id;
    std::unordered_map<SpanId, std::vector<std::pair<double, double>>>
        children;
    for (const auto &s : all) {
        by_id[s.id] = &s;
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startUs, s.endUs);
    }
    auto under_root = [&](const SpanRecord &s) {
        if (root == 0)
            return true;
        const SpanRecord *cur = &s;
        while (cur != nullptr) {
            if (cur->id == root)
                return true;
            auto it = by_id.find(cur->parent);
            cur = it == by_id.end() ? nullptr : it->second;
        }
        return false;
    };
    std::map<std::string, SpanStats> out;
    for (const auto &s : all) {
        if (!under_root(s))
            continue;
        const double dur = s.endUs - s.startUs;
        double child = 0.0;
        if (auto it = children.find(s.id); it != children.end())
            child = unionLength(it->second, s.startUs, s.endUs);
        SpanStats &st = out[s.name];
        ++st.count;
        st.totalMs += dur / 1e3;
        st.selfMs += (dur - child) / 1e3;
        st.durationsMs.push_back(dur / 1e3);
    }
    return out;
}

double
Tracer::coverage(const std::string &name) const
{
    const std::vector<SpanRecord> all = spans();
    std::unordered_map<SpanId, std::vector<std::pair<double, double>>>
        children;
    for (const auto &s : all)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startUs, s.endUs);
    double total = 0.0;
    double covered = 0.0;
    for (const auto &s : all) {
        if (s.name != name)
            continue;
        total += s.endUs - s.startUs;
        if (auto it = children.find(s.id); it != children.end())
            covered += unionLength(it->second, s.startUs, s.endUs);
    }
    return total > 0.0 ? covered / total : 0.0;
}

bool
Tracer::writeJsonl(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    char line[512];
    for (const auto &s : spans()) {
        std::snprintf(line, sizeof line,
                      "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                      "\"start_us\": %.3f, \"end_us\": %.3f, "
                      "\"item\": %lld, \"thread\": %u}\n",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      s.name.c_str(), s.startUs, s.endUs,
                      static_cast<long long>(s.item), s.thread);
        out << line;
    }
    return static_cast<bool>(out);
}

Span::Span(Tracer &tracer, const char *name, SpanId parent,
           std::int64_t item)
    : tracer_(tracer),
      name_(name),
      id_(tracer.openId()),
      parent_(parent),
      item_(item),
      startUs_(tracer.nowUs())
{
}

Span::~Span()
{
    tracer_.record(SpanRecord{id_, parent_, name_, startUs_,
                              tracer_.nowUs(), item_, threadTag()});
}

} // namespace e2e
