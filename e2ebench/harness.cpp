#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "tensor/simd.h"

namespace e2e {

namespace fs = std::filesystem;

std::string
distribution(const std::string &name, const std::vector<double> &values)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s: %zu samples, min %.4g p10 %.4g p25 %.4g p50 %.4g "
                  "p75 %.4g p90 %.4g max %.4g",
                  name.c_str(), values.size(), quantile(values, 0.0),
                  quantile(values, 0.1), quantile(values, 0.25),
                  quantile(values, 0.5), quantile(values, 0.75),
                  quantile(values, 0.9), quantile(values, 1.0));
    return buf;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer over the combined value.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::int64_t samples)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0.0;
    }
    metrics_.push_back({name, value, unit, samples});
}

void
Report::fail(const std::string &what)
{
    ++failed_;
    // Keep the first few causes; a systematic defect repeats itself.
    if (failures_.size() < 20)
        failures_.push_back(what);
}

void
Report::note(const std::string &line)
{
    notes_.push_back(line);
}

int
Report::finish() const
{
    for (const auto &line : notes_)
        std::printf("%s\n", line.c_str());
    std::printf("%-34s %16s  %-6s %8s\n", "metric", "value", "unit",
                "samples");
    for (const auto &m : metrics_)
        std::printf("%-34s %16.6f  %-6s %8lld\n", m.name.c_str(), m.value,
                    m.unit.c_str(), static_cast<long long>(m.samples));
    std::printf("operations: %lld attempted, %lld failed\n",
                static_cast<long long>(attempted_),
                static_cast<long long>(failed_));
    for (const auto &f : failures_)
        std::printf("FAILED: %s\n", f.c_str());

    std::ostringstream json;
    json << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
         << ", \"attempted\": " << std::max<std::int64_t>(attempted_, 1)
         << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
        json << (i ? ", " : "") << "\"" << metrics_[i].name
             << "\": {\"value\": " << value << ", \"unit\": \""
             << metrics_[i].unit << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
    return failed_ == 0 ? 0 : 1;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    if (!clear)
        return false;
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

void
freshDir(const std::string &path)
{
    std::error_code ec;
    fs::remove_all(path, ec);
    fs::create_directories(path);
}

void
removeDir(const std::string &path)
{
    std::error_code ec;
    fs::remove_all(path, ec);
}

bool
releaseBuild()
{
    return std::string(E2E_BUILD_TYPE) == "Release";
}

std::string
provenance(const Options &options)
{
    namespace simd = tbd::tensor::simd;
    std::ostringstream os;
    os << "provenance: build=" << E2E_BUILD_TYPE
       << " compiler=\"" << E2E_COMPILER << "\""
       << " simd=" << simd::tierName(simd::activeTier())
       << " nproc=" << std::thread::hardware_concurrency()
       << " source=" << (options.source.empty() ? "unknown"
                                                : options.source)
       << " workload=" << options.workload << " seed=" << options.seed
       << " seconds=" << options.seconds
       << " trace=" << (options.trace ? 1 : 0);
    return os.str();
}

} // namespace e2e
