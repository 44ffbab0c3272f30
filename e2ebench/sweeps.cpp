/**
 * @file
 * Sweep phase: every SweepSpec cell on both GPUs plus the lengthCv
 * cells of NMT, Sockeye and Deep Speech 2 (the figure sweep), then the
 * bench_dist_scaling grid of 9 models x 4 topologies x 4 scales x 3
 * collectives (the distributed study).
 *
 * Cold mode gives every pass a new empty store and cleared memos, so
 * lowering, fingerprinting, the timeline and store writes do the work.
 * Warm mode fills the store during set-up and clears only the memos
 * before each pass, so store probes, reads and decodes do the work.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "check/golden.h"
#include "core/suite.h"
#include "core/sweep_spec.h"
#include "dist/sim_cache.h"
#include "perf/lowering_cache.h"
#include "perf/memory_model.h"
#include "phases.h"
#include "serve/protocol.h"
#include "store/store.h"
#include "util/rng.h"

namespace e2e {

namespace {

using namespace tbd;
namespace fs = std::filesystem;

constexpr double kLengthCv = 0.25;

using Cells = std::vector<core::BenchmarkRequest>;
using RunResults = std::vector<std::optional<perf::RunResult>>;
using DistResults = std::vector<std::optional<dist::DistResult>>;

Cells
figureCells(std::uint64_t seed)
{
    // The lengthCv cells first: they are the longest, and starting them
    // first keeps a pass's tail short and its wall time steady. Each
    // gets its own length-sampling seed drawn from the benchmark seed.
    Cells cells = core::SweepSpec()
                      .models({"NMT", "Sockeye", "Deep Speech 2"})
                      .lengthCv(kLengthCv)
                      .requests();
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i].lengthSeed = mixSeed(seed, 100 + i);
    const Cells fixed =
        core::SweepSpec().gpus({"Quadro P4000", "TITAN Xp"}).requests();
    cells.insert(cells.end(), fixed.begin(), fixed.end());
    return cells;
}

/** The bench_dist_scaling grid (without its one compressed cell). */
Cells
distCells()
{
    Cells cells;
    for (const auto *model : models::allModels()) {
        core::BenchmarkRequest base;
        base.model = model->name;
        base.framework =
            frameworks::frameworkName(model->frameworks.front());
        base.batch = model->batchSweep.front();
        for (const char *topo : {"ethernet-flat", "infiniband-flat",
                                 "nvlink-island", "fat-tree"})
            for (int workers : {8, 16, 32, 64})
                for (const char *coll : {"ring", "tree", "hierarchical"}) {
                    core::BenchmarkRequest r = base;
                    r.distTopology = topo;
                    r.distWorkers = workers;
                    r.distCollective = coll;
                    cells.push_back(r);
                }
    }
    return cells;
}

/** FNV-1a over the bit patterns of a dist result. */
std::uint64_t
distFingerprint(const std::optional<dist::DistResult> &r)
{
    if (!r)
        return 0;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto bytes = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 0x100000001b3ULL;
    };
    for (const std::string *s : {&r->topology, &r->collective, &r->label,
                                 &r->busiestEdge})
        bytes(s->data(), s->size() + 1);
    bytes(&r->workers, sizeof r->workers);
    for (double v : {r->computeUs, r->commUs, r->exposedCommUs,
                     r->iterationUs, r->throughputSamples,
                     r->scalingEfficiency, r->commShare, r->gradBytes})
        bytes(&v, sizeof v);
    return h;
}

std::uint64_t
cellFingerprint(const std::optional<perf::RunResult> &r)
{
    return r ? serve::resultFingerprint(*r) : 0;
}

bool
isOom(const util::FatalError &e)
{
    return std::strstr(e.what(), "out of memory") != nullptr;
}

/** Base (single-GPU) request of a dist cell, as runDistSweep keys it. */
core::BenchmarkRequest
baseOf(core::BenchmarkRequest r)
{
    r.distWorkers = 0;
    r.distTopology.clear();
    r.distCollective.clear();
    r.distCompression = 1.0;
    return r;
}

std::string
baseKey(const core::BenchmarkRequest &b)
{
    return b.model + "\x1f" + b.framework + "\x1f" + b.gpu + "\x1f" +
           std::to_string(b.batch) + "\x1f" + std::to_string(b.lengthCv) +
           "\x1f" + std::to_string(b.lengthSeed);
}

std::uint64_t
storeBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            total += e.file_size(ec);
    return total;
}

/** The store's entry file for a run config (see store.cpp). */
fs::path
entryFile(const std::string &dir, const perf::RunConfig &config)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(store::fnv1a64(
                      store::canonicalRunKeyJson(config))));
    return fs::path(dir) / ("run-" + std::string(hex) + ".tbds");
}

/** Lowered iterations already produced in this pass (miss detection). */
class SeenSet
{
  public:
    bool insert(const void *p)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return set_.insert(p).second;
    }

  private:
    std::mutex mutex_;
    std::unordered_set<const void *> set_;
};

/** What the traced mirror of one PerfSimulator::run observed. */
struct MirrorOut
{
    bool storeHit = false;
    bool oom = false;
    std::vector<double> sampleUs;
    std::int64_t items = 0;
    std::int64_t launches = 0;
    std::int64_t replayHits = 0;
    std::int64_t replayFallbacks = 0;
};

/**
 * Call, under spans, the layers PerfSimulator::run calls for one cell
 * and in the same order: store probe, describe, memory model, the
 * LoweringCache entry points, the GpuTimeline launch loop with
 * steady-state replay, and the store put of `reference` (the result
 * the real run produced for this cell). The launch loop reproduces
 * run()'s exactly, so its sampled iteration times must equal the
 * reference's bitwise; the caller checks that.
 */
MirrorOut
mirrorRun(const perf::RunConfig &config,
          const perf::RunResult *reference, Tracer &tr, SpanId parent,
          std::int64_t item, SeenSet &seen)
{
    MirrorOut out;
    const models::ModelDesc &model = *config.model;
    {
        Span s(tr, "store.probe", parent, item);
        try {
            if (auto hit = store::tryLoadRun(config)) {
                out.storeHit = true;
                out.sampleUs = hit->sampleIterationUs;
            }
        } catch (const util::FatalError &) {
            out.storeHit = true; // replayed OOM negative
            out.oom = true;
        }
    }
    if (out.storeHit)
        return out;

    const frameworks::FrameworkProfile &fw =
        frameworks::profileFor(config.framework);
    std::optional<models::Workload> workload;
    {
        Span s(tr, "models.describe", parent, item);
        workload.emplace(model.describe(config.batch));
    }
    std::string oom_message;
    {
        Span s(tr, "perf.memory_model", parent, item);
        try {
            perf::simulateIterationMemory(
                model, *workload, fw, perf::OptimizerSpec{},
                config.enforceMemory ? config.gpu.memoryBytes() : 0);
        } catch (const util::FatalError &e) {
            if (!isOom(e))
                throw;
            out.oom = true;
            oom_message = e.what();
        }
    }
    if (out.oom) {
        Span s(tr, "store.put", parent, item);
        store::putRunOom(config, oom_message);
        return out;
    }

    auto &cache = perf::LoweringCache::global();
    std::shared_ptr<const perf::LoweredIteration> iter;
    std::shared_ptr<const perf::LoweredIteration> tune;
    {
        Span s(tr, "perf.lowering", parent, item);
        iter = cache.iteration(model, config.framework, config.batch);
    }
    if (seen.insert(iter.get())) {
        // A miss: lowerIteration fingerprinted the items inside the
        // lowering span; time that step again on its own.
        out.items += static_cast<std::int64_t>(iter->items.size());
        Span s(tr, "perf.fingerprint", parent, item);
        if (perf::fingerprintIteration(*iter) != iter->fingerprint)
            throw std::runtime_error("fingerprint is not reproducible");
    }
    {
        Span s(tr, "perf.autotune", parent, item);
        tune = cache.autotune(model, config.framework, config.batch);
    }
    if (seen.insert(tune.get()))
        out.items += static_cast<std::int64_t>(tune->items.size());
    std::vector<std::shared_ptr<const perf::LoweredIteration>> varied;
    if (config.lengthCv > 0.0 && model.describeScaled) {
        Span s(tr, "perf.scaled_lowering", parent, item);
        util::Rng length_rng(config.lengthSeed);
        for (int i = 0; i < config.sampleIterations; ++i) {
            const double scale = length_rng.truncatedNormal(
                1.0, config.lengthCv, 0.5, 2.0);
            varied.push_back(cache.scaledIteration(
                model, config.framework, config.batch, scale));
        }
    }
    for (const auto &v : varied)
        if (seen.insert(v.get()))
            out.items += static_cast<std::int64_t>(v->items.size());

    {
        Span s(tr, "gpusim.timeline", parent, item);
        gpusim::GpuTimeline timeline(config.gpu);
        const double serial_host_us =
            fw.perIterationHostUs + model.fixedHostUsPerIter;
        const double env_us_total =
            model.cpuWorkUsPerSample * static_cast<double>(config.batch);
        const double env_serial_us =
            env_us_total / std::max(1, model.cpuWorkerThreads);
        std::uint64_t prev_key = 0;
        bool prev_valid = false;
        auto run_iteration = [&](const perf::LoweredIteration &body,
                                 bool with_autotune) {
            const std::uint64_t key =
                body.fingerprint ^
                (with_autotune ? 0x9e3779b97f4a7c15ULL : 0u);
            if (prev_valid && key == prev_key && timeline.atSyncPoint() &&
                timeline.traceComplete()) {
                timeline.applyIterationDelta(timeline.lastIterationDelta());
                ++out.replayHits;
                return;
            }
            prev_key = key;
            prev_valid = true;
            ++out.replayFallbacks;
            timeline.hostCompute(serial_host_us + env_serial_us);
            if (with_autotune) {
                for (const auto &it : tune->items)
                    timeline.launch(it.kernel,
                                    fw.launchOverheadUs + it.extraHostUs);
                out.launches +=
                    static_cast<std::int64_t>(tune->items.size());
            }
            for (const auto &it : body.items)
                timeline.launch(it.kernel,
                                fw.launchOverheadUs + it.extraHostUs);
            out.launches += static_cast<std::int64_t>(body.items.size());
            timeline.sync();
        };
        timeline.beginInterval();
        timeline.setTraceLimit(0);
        for (int i = 0; i < config.warmupIterations; ++i)
            run_iteration(*iter, i == 0);
        timeline.beginInterval();
        timeline.setTraceLimit(iter->items.size());
        prev_valid = false;
        double prev_elapsed = 0.0;
        for (int i = 0; i < config.sampleIterations; ++i) {
            run_iteration(varied.empty()
                              ? *iter
                              : *varied[static_cast<std::size_t>(i)],
                          false);
            const double elapsed = timeline.stats().elapsedUs;
            out.sampleUs.push_back(elapsed - prev_elapsed);
            prev_elapsed = elapsed;
        }
    }
    if (reference != nullptr) {
        Span s(tr, "store.put", parent, item);
        store::putRun(config, *reference);
    }
    return out;
}

/** Per-pass values of one traced-pass kind, keyed by metric name. */
using PassSeries = std::map<std::string, std::vector<double>>;

} // namespace

struct SweepPhase::Impl
{
    Context &ctx;
    Mode mode;
    Cells cells;
    Cells dcells;
    std::string storeDir;
    std::vector<std::uint64_t> refCells;
    std::vector<std::uint64_t> refDist;
    /** Index of each model's canonical golden cell within `cells`. */
    std::vector<std::pair<const models::ModelDesc *, std::size_t>> goldenCells;
    std::map<std::string, check::GoldenRecord> goldens;
    bool injected = false;
    std::vector<double> sweepMs; ///< measured pass wall times
    std::vector<double> distMs;
    std::vector<double> sweepCpuMs; ///< measured pass CPU times
    std::vector<double> distCpuMs;
    /**
     * Measured passes run on one thread (a pool without workers runs
     * parallelFor inline): the CPU time of a parallel pass follows how
     * many of its threads the shared host runs at once (README.md,
     * Design choices). Set-up and the traced run use the 2-worker pool.
     */
    util::ThreadPool serial{1};
    double creditMs = 0.0; ///< sweep time left to the measured units

    explicit Impl(Context &c)
        : ctx(c),
          mode(c.options.mode),
          cells(figureCells(c.options.seed)),
          dcells(distCells()),
          storeDir(c.options.workDir + "/store-sweep")
    {
        for (const auto *model : models::allModels()) {
            const perf::RunConfig canon = check::canonicalConfig(*model);
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const auto &r = cells[i];
                if (r.model == model->name && r.lengthCv == 0.0 &&
                    r.framework ==
                        frameworks::frameworkName(canon.framework) &&
                    r.gpu == canon.gpu.name && r.batch == canon.batch) {
                    goldenCells.emplace_back(model, i);
                    break;
                }
            }
        }
        if (goldenCells.size() != models::allModels().size())
            ctx.report.fail("a canonical golden cell is missing from the "
                            "figure sweep");
        for (const auto &[model, index] : goldenCells) {
            const perf::RunConfig canon = check::canonicalConfig(*model);
            check::GoldenRecord probe;
            probe.model = model->name;
            probe.framework = frameworks::frameworkName(canon.framework);
            probe.batch = canon.batch;
            const std::string path =
                ctx.options.goldenDir + "/" + check::goldenFileName(probe);
            try {
                goldens[model->name] = check::readGoldenFile(path);
            } catch (const std::exception &e) {
                ctx.report.fail("cannot read golden " + path + ": " +
                                e.what());
            }
        }
    }

    void useStore(bool fresh)
    {
        store::setStoreEnabled(true);
        store::setStoreDir(storeDir);
        if (fresh)
            freshDir(storeDir);
    }

    static void clearMemos()
    {
        perf::LoweringCache::global().clear();
        dist::clearDistMemos();
    }

    /** Compare one pass's fingerprints to the reference (or adopt). */
    void checkFingerprints(std::vector<std::uint64_t> got,
                           std::vector<std::uint64_t> &ref,
                           const Cells &which, const char *what)
    {
        ctx.report.attempt(static_cast<std::int64_t>(got.size()));
        if (ctx.options.inject == Inject::Fingerprint && !injected &&
            !ref.empty() && &ref == &refCells) {
            got[0] ^= 1; // self-test: a flipped bit must fail the run
            injected = true;
        }
        if (ref.empty()) {
            ref = std::move(got);
            return;
        }
        for (std::size_t i = 0; i < got.size(); ++i)
            if (got[i] != ref[i])
                ctx.report.fail(std::string(what) + " cell " +
                                which[i].model + "/" + which[i].framework +
                                "/" + which[i].gpu + "/b" +
                                std::to_string(which[i].batch) +
                                (which[i].distTopology.empty()
                                     ? ""
                                     : "/" + which[i].distTopology + "x" +
                                           std::to_string(
                                               which[i].distWorkers) +
                                           "/" + which[i].distCollective) +
                                ": result fingerprint changed");
    }

    void checkResults(const RunResults &res, const DistResults &dres)
    {
        std::vector<std::uint64_t> fp;
        for (const auto &r : res)
            fp.push_back(cellFingerprint(r));
        checkFingerprints(std::move(fp), refCells, cells, "sweep");
        std::vector<std::uint64_t> dfp;
        for (const auto &r : dres)
            dfp.push_back(distFingerprint(r));
        checkFingerprints(std::move(dfp), refDist, dcells, "dist");
        for (const auto &[model, index] : goldenCells) {
            ctx.report.attempt();
            const auto it = goldens.find(model->name);
            if (it == goldens.end())
                continue; // unreadable golden: already failed
            if (!res[index]) {
                ctx.report.fail("golden cell " + model->name + " OOMed");
                continue;
            }
            const check::GoldenDiff diff = check::compareGolden(
                it->second, check::captureGolden(
                                check::canonicalConfig(*model), *res[index]));
            if (!diff.ok())
                ctx.report.fail("golden " + model->name + ": " +
                                diff.summary());
        }
    }

    struct PassTimes
    {
        double sweepMs = 0.0;
        double distMs = 0.0;
        double sweepCpuMs = 0.0;
        double distCpuMs = 0.0;
    };

    /** One untraced pass through the public sweep entry points. */
    PassTimes runPass(util::ThreadPool &pool)
    {
        util::ThreadPool::Scope scope(pool);
        const double c0 = processCpuMs();
        const auto t0 = Clock::now();
        const RunResults res = core::BenchmarkSuite::runSweep(cells);
        const auto t1 = Clock::now();
        const double c1 = processCpuMs();
        const DistResults dres = core::BenchmarkSuite::runDistSweep(dcells);
        const auto t2 = Clock::now();
        const double c2 = processCpuMs();
        checkResults(res, dres);
        return {msBetween(t0, t1), msBetween(t1, t2), c1 - c0, c2 - c1};
    }

    void prepareColdPass()
    {
        useStore(true);
        clearMemos();
    }

    // ---- traced run -------------------------------------------------

    struct TracedPass
    {
        std::map<std::string, double> values;
    };

    /**
     * Reference pass for one traced pass: PerfSimulator::run per cell
     * on the same 2-worker parallelFor that set-up passes use, timing each
     * cell from the outside. Returns the results and per-cell ms.
     */
    RunResults reconcilePass(std::vector<double> &cellMs, double &wallMs)
    {
        RunResults res(cells.size());
        cellMs.assign(cells.size(), 0.0);
        util::ThreadPool::Scope scope(ctx.pool);
        const auto t0 = Clock::now();
        util::parallelFor(
            0, static_cast<std::int64_t>(cells.size()), 1,
            [&](std::int64_t b, std::int64_t e) {
                for (std::int64_t i = b; i < e; ++i) {
                    const auto k = static_cast<std::size_t>(i);
                    const auto c0 = Clock::now();
                    try {
                        res[k] = perf::PerfSimulator().run(
                            core::toRunConfig(cells[k]));
                    } catch (const util::FatalError &err) {
                        if (!isOom(err))
                            throw;
                    }
                    cellMs[k] = msSince(c0);
                }
            });
        wallMs = msSince(t0);
        return res;
    }

    /** Traced figure pass; fills per-pass layer values into `out`. */
    void tracedFigurePass(const char *rootName, Tracer &tr,
                          const RunResults &ref,
                          const std::vector<double> &refCellMs,
                          PassSeries &out, double &wallMs)
    {
        SeenSet seen;
        std::vector<SpanId> cellSpan(cells.size(), 0);
        std::vector<MirrorOut> mirrors(cells.size());
        std::vector<perf::RunConfig> configs(cells.size());
        const auto lc0 = perf::LoweringCache::global().stats();
        const auto sc0 = store::counters();
        const auto t0 = Clock::now();
        SpanId root = 0;
        {
            Span pass(tr, rootName);
            root = pass.id();
            util::ThreadPool::Scope scope(ctx.pool);
            util::parallelFor(
                0, static_cast<std::int64_t>(cells.size()), 1,
                [&](std::int64_t b, std::int64_t e) {
                    for (std::int64_t i = b; i < e; ++i) {
                        const auto k = static_cast<std::size_t>(i);
                        Span cell(tr, "core.cell", pass.id(), i);
                        cellSpan[k] = cell.id();
                        {
                            Span s(tr, "core.resolve", cell.id(), i);
                            configs[k] = core::toRunConfig(cells[k]);
                        }
                        mirrors[k] =
                            mirrorRun(configs[k], ref[k] ? &*ref[k] : nullptr,
                                      tr, cell.id(), i, seen);
                    }
                });
        }
        wallMs = msSince(t0);
        const auto lc1 = perf::LoweringCache::global().stats();
        const auto sc1 = store::counters();

        // Mirror fidelity and correctness of what it observed.
        for (std::size_t k = 0; k < cells.size(); ++k) {
            ctx.report.attempt();
            const bool oom = !ref[k];
            if (mirrors[k].oom != oom)
                ctx.report.fail("traced mirror disagrees on OOM for cell " +
                                cells[k].model);
            else if (!oom && !sameBits(mirrors[k].sampleUs,
                                       ref[k]->sampleIterationUs))
                ctx.report.fail("traced mirror timeline differs from "
                                "PerfSimulator::run for cell " +
                                cells[k].model);
        }

        // Per-cell attribution: sum of the mirrored layers (minus the
        // fingerprint re-run, which run() does not do) against the
        // cell's own PerfSimulator::run time.
        const auto spans = tr.spans();
        std::map<SpanId, std::size_t> cell_of;
        for (std::size_t k = 0; k < cells.size(); ++k)
            cell_of[cellSpan[k]] = k;
        std::vector<double> layer_ms(cells.size(), 0.0);
        std::vector<double> cell_ms(cells.size(), 0.0);
        std::map<std::uint32_t, double> thread_last_end;
        double pass_start = 0.0;
        double pass_end = 0.0;
        std::uint64_t bytes_read = 0;
        for (const auto &s : spans) {
            if (s.id == root) {
                pass_start = s.startUs;
                pass_end = s.endUs;
            }
            if (auto it = cell_of.find(s.id); it != cell_of.end()) {
                cell_ms[it->second] = (s.endUs - s.startUs) / 1e3;
                thread_last_end[s.thread] =
                    std::max(thread_last_end[s.thread], s.endUs);
            }
            auto it = cell_of.find(s.parent);
            if (it == cell_of.end() || s.name == "perf.fingerprint" ||
                s.name == "core.resolve")
                continue;
            layer_ms[it->second] += (s.endUs - s.startUs) / 1e3;
        }
        double unattributed = 0.0;
        std::int64_t items = 0, launches = 0, hits = 0, fallbacks = 0;
        for (std::size_t k = 0; k < cells.size(); ++k) {
            unattributed += refCellMs[k] - layer_ms[k];
            items += mirrors[k].items;
            launches += mirrors[k].launches;
            hits += mirrors[k].replayHits;
            fallbacks += mirrors[k].replayFallbacks;
            if (mirrors[k].storeHit && ref[k]) {
                std::error_code ec;
                const fs::path path = entryFile(storeDir, configs[k]);
                bytes_read += fs::file_size(path, ec);
            }
        }
        const auto roll = tr.rollup(root);
        auto self = [&](const char *name) {
            auto it = roll.find(name);
            return it == roll.end() ? 0.0 : it->second.selfMs;
        };
        auto put = [&](const std::string &name, double v) {
            out[name].push_back(v);
        };
        if (launches > 0) {
            put("models.describe_ms", self("models.describe"));
            put("perf.memory_model_ms", self("perf.memory_model"));
            put("perf.lowering_ms",
                self("perf.lowering") - self("perf.fingerprint"));
            put("perf.fingerprint_ms", self("perf.fingerprint"));
            put("perf.autotune_ms", self("perf.autotune"));
            put("perf.scaled_lowering_ms", self("perf.scaled_lowering"));
            put("perf.lowering_items", static_cast<double>(items));
            const double lc_lookups = static_cast<double>(
                (lc1.hits - lc0.hits) + (lc1.misses - lc0.misses));
            put("perf.lowering_cache.hit_ratio",
                lc_lookups > 0
                    ? static_cast<double>(lc1.hits - lc0.hits) / lc_lookups
                    : 0.0);
            put("perf.lowering_cache.entries",
                static_cast<double>(lc1.entries));
            put("gpusim.timeline_ms", self("gpusim.timeline"));
            put("gpusim.launches", static_cast<double>(launches));
            put("gpusim.ns_per_launch",
                self("gpusim.timeline") * 1e6 /
                    static_cast<double>(launches));
            put("gpusim.replay_hit_ratio",
                static_cast<double>(hits) /
                    static_cast<double>(std::max<std::int64_t>(
                        1, hits + fallbacks)));
        }
        put("perf.unattributed_ms", unattributed);
        // Pool occupancy and the straggler tail: the tail is the time
        // between the first worker running out of cells and the end.
        double busy = 0.0;
        for (double ms : cell_ms)
            busy += ms;
        double first_idle = pass_end;
        for (const auto &[thread, end] : thread_last_end)
            first_idle = std::min(first_idle, end);
        const double wall = (pass_end - pass_start) / 1e3;
        put("core.pool_busy_share",
            busy / (static_cast<double>(thread_last_end.size()) * wall));
        put("core.cell_p50_ms", quantile(cell_ms, 0.5));
        put("core.cell_p99_ms", quantile(cell_ms, 0.99));
        put("core.tail_ms", (pass_end - first_idle) / 1e3);
        const double probes = static_cast<double>(
            (sc1.hits - sc0.hits) + (sc1.misses - sc0.misses));
        put("store.hit_ratio",
            probes > 0 ? static_cast<double>(sc1.hits - sc0.hits) / probes
                       : 0.0);
        put("store.bytes_read", static_cast<double>(bytes_read));
    }

    /** Traced distributed pass, mirroring runDistSweep. */
    void tracedDistPass(const char *rootName, Tracer &tr, PassSeries &out,
                        double &wallMs)
    {
        Cells bases;
        std::vector<std::size_t> base_of(dcells.size());
        std::map<std::string, std::size_t> index;
        for (std::size_t i = 0; i < dcells.size(); ++i) {
            core::BenchmarkRequest b = baseOf(dcells[i]);
            const auto [it, inserted] = index.emplace(baseKey(b), bases.size());
            if (inserted)
                bases.push_back(std::move(b));
            base_of[i] = it->second;
        }
        RunResults base_results(bases.size());
        DistResults results(dcells.size());
        const auto pc0 = dist::planCacheStats();
        const auto t0 = Clock::now();
        SpanId root = 0;
        {
            Span pass(tr, rootName);
            root = pass.id();
            {
                Span sb(tr, "dist.baselines", pass.id());
                util::ThreadPool::Scope scope(ctx.pool);
                util::parallelFor(
                    0, static_cast<std::int64_t>(bases.size()), 1,
                    [&](std::int64_t b, std::int64_t e) {
                        for (std::int64_t i = b; i < e; ++i) {
                            const auto k = static_cast<std::size_t>(i);
                            Span cell(tr, "core.cell", sb.id(), i);
                            perf::RunConfig config;
                            {
                                Span s(tr, "core.resolve", cell.id(), i);
                                config = core::toRunConfig(bases[k]);
                            }
                            {
                                Span s(tr, "store.probe", cell.id(), i);
                                base_results[k] = store::tryLoadRun(config);
                            }
                            if (!base_results[k]) {
                                Span s(tr, "perf.run", cell.id(), i);
                                base_results[k] =
                                    perf::PerfSimulator().run(config);
                            }
                        }
                    });
            }
            for (std::size_t i = 0; i < dcells.size(); ++i) {
                const auto &base = base_results[base_of[i]];
                if (!base)
                    continue;
                const auto &req = dcells[i];
                Span cell(tr, "dist.cell", pass.id(),
                          static_cast<std::int64_t>(i));
                perf::RunConfig base_config;
                dist::DistConfig dist_config;
                {
                    Span s(tr, "dist.resolve", cell.id());
                    base_config = core::toRunConfig(bases[base_of[i]]);
                    dist_config = core::toDistConfig(req);
                }
                {
                    Span s(tr, "store.probe", cell.id());
                    results[i] = store::tryLoadDist(base_config, dist_config);
                }
                if (results[i])
                    continue;
                {
                    Span s(tr, "dist.cost", cell.id());
                    results[i] = dist::simulateDistributed(
                        *base_config.model, base_config.framework,
                        base_config.gpu, req.batch, dist_config, &*base);
                }
                Span s(tr, "store.put", cell.id());
                store::putDist(base_config, dist_config, *results[i]);
            }
        }
        wallMs = msSince(t0);
        const auto pc1 = dist::planCacheStats();
        std::vector<std::uint64_t> dfp;
        for (const auto &r : results)
            dfp.push_back(distFingerprint(r));
        checkFingerprints(std::move(dfp), refDist, dcells, "traced dist");

        const auto roll = tr.rollup(root);
        auto it = roll.find("dist.cost");
        if (it != roll.end()) {
            out["dist.cost_ms"].push_back(it->second.selfMs);
            const double lookups = static_cast<double>(
                (pc1.hits - pc0.hits) + (pc1.misses - pc0.misses));
            out["dist.plan_cache.hit_ratio"].push_back(
                lookups > 0
                    ? static_cast<double>(pc1.hits - pc0.hits) / lookups
                    : 0.0);
        }
    }
};

SweepPhase::SweepPhase(Context &ctx) : impl_(std::make_unique<Impl>(ctx)) {}

SweepPhase::~SweepPhase()
{
    removeDir(impl_->storeDir);
}

void
SweepPhase::setupRound()
{
    Impl &m = *impl_;
    // Cold: one unmeasured pass (interning, first touch). Warm: the
    // populate pass that fills the store, then one unmeasured warm pass.
    m.prepareColdPass();
    m.runPass(m.ctx.pool);
    if (m.mode == Mode::Warm) {
        m.clearMemos();
        m.runPass(m.ctx.pool);
    }
}

void
SweepPhase::measureUnit(double ms)
{
    Impl &m = *impl_;
    m.useStore(false);
    // Whole passes while the run's sweep time lasts: what a pass runs
    // over is taken from the next unit, so a run measures for about
    // --seconds however long one pass takes.
    m.creditMs += ms;
    while (m.creditMs > 0.0 || m.sweepMs.empty()) {
        const auto start = Clock::now();
        if (m.mode == Mode::Cold)
            m.prepareColdPass();
        else
            m.clearMemos();
        const Impl::PassTimes t = m.runPass(m.serial);
        m.sweepMs.push_back(t.sweepMs);
        m.distMs.push_back(t.distMs);
        m.sweepCpuMs.push_back(t.sweepCpuMs);
        m.distCpuMs.push_back(t.distCpuMs);
        m.creditMs -= msSince(start);
        if (m.ctx.options.smoke)
            break;
    }
}

void
SweepPhase::finishMeasure()
{
    Impl &m = *impl_;
    const auto n = static_cast<std::int64_t>(m.sweepMs.size());
    // The gated figures are CPU time: on a shared host the pass wall
    // times follow how long other tenants hold the CPUs (README.md,
    // Design choices) and are printed in the notes only. The distributed
    // study is gated inside the whole pass (nightly_cpu_ms).
    std::vector<double> nightly_cpu_ms;
    for (std::size_t i = 0; i < m.sweepCpuMs.size(); ++i)
        nightly_cpu_ms.push_back(m.sweepCpuMs[i] + m.distCpuMs[i]);
    m.ctx.report.metric("sweep_cpu_ms", median(m.sweepCpuMs), "ms", n);
    m.ctx.report.metric("nightly_cpu_ms", median(nightly_cpu_ms), "ms", n);
    m.ctx.report.note("sweep: " + std::to_string(m.cells.size()) +
                      " figure cells, " + std::to_string(m.dcells.size()) +
                      " dist cells, " + std::to_string(n) + " passes");
    m.ctx.report.note(distribution("sweep_cpu_ms", m.sweepCpuMs));
    m.ctx.report.note(distribution("dist_cpu_ms", m.distCpuMs));
    m.ctx.report.note(distribution("sweep_ms (wall)", m.sweepMs));
    m.ctx.report.note(distribution("dist_ms (wall)", m.distMs));
}

void
SweepPhase::traced(double seconds, Tracer &tracer)
{
    Impl &m = *impl_;
    // Cold-semantics passes time the layers a warm pass bypasses; a
    // warm workload traces one (as its populate pass) and then warm
    // passes, whose values take precedence where both exist.
    PassSeries cold;
    PassSeries warm;
    std::vector<double> sweep_overhead;
    std::vector<double> dist_overhead;
    auto one_pass = [&](bool coldPass, PassSeries &out) {
        std::vector<double> cell_ms;
        double wall_u = 0.0, wall_t = 0.0, dist_u = 0.0, dist_t = 0.0;
        if (coldPass)
            m.prepareColdPass();
        else
            m.clearMemos();
        const RunResults ref = m.reconcilePass(cell_ms, wall_u);
        {
            util::ThreadPool::Scope scope(m.ctx.pool);
            const auto t0 = Clock::now();
            const DistResults dres =
                core::BenchmarkSuite::runDistSweep(m.dcells);
            dist_u = msSince(t0);
            m.checkResults(ref, dres);
        }
        if (coldPass)
            m.prepareColdPass();
        else
            m.clearMemos();
        const std::uint64_t bytes0 = storeBytes(m.storeDir);
        m.tracedFigurePass(coldPass ? "sweep.cold_pass" : "sweep.warm_pass",
                           tracer, ref, cell_ms, out, wall_t);
        m.tracedDistPass(coldPass ? "dist.cold_pass" : "dist.warm_pass",
                         tracer, out, dist_t);
        if (coldPass)
            out["store.bytes_written"].push_back(
                static_cast<double>(storeBytes(m.storeDir) - bytes0));
        if (coldPass == (m.mode == Mode::Cold)) {
            sweep_overhead.push_back(wall_t - wall_u);
            dist_overhead.push_back(dist_t - dist_u);
        }
    };
    const auto start = Clock::now();
    if (m.mode == Mode::Warm)
        one_pass(true, cold); // the traced populate pass
    const bool primary_cold = m.mode == Mode::Cold;
    do {
        one_pass(primary_cold, primary_cold ? cold : warm);
    } while (!m.ctx.options.smoke && msSince(start) < seconds * 1e3);

    // Store span quantiles pool every traced pass: warm's puts all come
    // from its cold populate pass, its probes mostly from warm passes.
    const auto roll = tracer.rollup();
    auto span_q = [&](const char *name, double q, double scale) {
        auto it = roll.find(name);
        return it == roll.end() ? 0.0
                                : quantile(it->second.durationsMs, q) * scale;
    };
    std::vector<double> decode_us;
    {
        // store.decode: decode of the payload bytes the store holds
        // for each figure cell, timed alone.
        for (const auto &req : m.cells) {
            std::optional<perf::RunResult> r;
            try {
                r = store::tryLoadRun(core::toRunConfig(req), false);
            } catch (const util::FatalError &) {
                continue;
            }
            if (!r)
                continue;
            const std::string bytes =
                store::encodeRunPayload({false, "", *r});
            const auto t0 = Clock::now();
            const auto decoded = store::decodeRunPayload(bytes);
            decode_us.push_back(msSince(t0) * 1e3);
            if (!decoded)
                m.ctx.report.fail("store payload does not decode");
        }
    }
    PassSeries &primary = primary_cold ? cold : warm;
    auto emit = [&](const std::string &name, const char *unit) {
        const std::vector<double> *series = nullptr;
        if (auto it = primary.find(name); it != primary.end())
            series = &it->second;
        else if (auto jt = cold.find(name); jt != cold.end())
            series = &jt->second;
        const double v = series ? median(*series) : 0.0;
        m.ctx.report.metric(name, v, unit,
                            series ? static_cast<std::int64_t>(series->size())
                                   : 0);
    };
    for (const char *name :
         {"models.describe_ms", "perf.memory_model_ms", "perf.lowering_ms",
          "perf.fingerprint_ms", "perf.autotune_ms",
          "perf.scaled_lowering_ms", "gpusim.timeline_ms",
          "perf.unattributed_ms", "core.cell_p50_ms", "core.cell_p99_ms",
          "core.tail_ms", "dist.cost_ms"})
        emit(name, "ms");
    for (const char *name : {"perf.lowering_items", "gpusim.launches",
                             "perf.lowering_cache.entries"})
        emit(name, "count");
    emit("gpusim.ns_per_launch", "ns");
    for (const char *name :
         {"perf.lowering_cache.hit_ratio", "gpusim.replay_hit_ratio",
          "core.pool_busy_share", "store.hit_ratio",
          "dist.plan_cache.hit_ratio"})
        emit(name, "ratio");
    emit("store.bytes_written", "bytes");
    emit("store.bytes_read", "bytes");
    const auto put_n = roll.count("store.put") ? roll.at("store.put").count : 0;
    const auto probe_n =
        roll.count("store.probe") ? roll.at("store.probe").count : 0;
    m.ctx.report.metric("store.put_us_p50", span_q("store.put", 0.5, 1e3),
                        "us", put_n);
    m.ctx.report.metric("store.put_us_p99", span_q("store.put", 0.99, 1e3),
                        "us", put_n);
    m.ctx.report.metric("store.probe_us_p50",
                        span_q("store.probe", 0.5, 1e3), "us", probe_n);
    m.ctx.report.metric("store.probe_us_p99",
                        span_q("store.probe", 0.99, 1e3), "us", probe_n);
    m.ctx.report.metric("store.decode_us_p50", median(decode_us), "us",
                        static_cast<std::int64_t>(decode_us.size()));
    m.ctx.report.metric("trace.sweep_overhead_ms", median(sweep_overhead),
                        "ms", static_cast<std::int64_t>(sweep_overhead.size()));
    m.ctx.report.metric("trace.dist_overhead_ms", median(dist_overhead), "ms",
                        static_cast<std::int64_t>(dist_overhead.size()));
    for (const char *name : {"sweep.cold_pass", "sweep.warm_pass",
                             "core.cell", "dist.cold_pass", "dist.warm_pass",
                             "dist.cell"})
        if (const double c = tracer.coverage(name); c > 0.0)
            m.ctx.report.note("trace: " + std::string(name) +
                              " covered by child spans " + std::to_string(c));
}

} // namespace e2e
