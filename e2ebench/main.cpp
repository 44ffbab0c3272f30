/**
 * @file
 * End-to-end benchmark of the TBD simulator and functional engine.
 *
 *   e2ebench --workload cold|warm --seed N --seconds S --trace 0|1
 *            [--smoke] [--inject fingerprint|status]
 *            [--golden-dir DIR] [--work-dir DIR] [--trace-out FILE]
 *            [--source STAMP]
 *
 * Every workload runs the same phases (sweeps and open-loop serving;
 * engine training in the traced run) from one process; the workload
 * picks the store and memo state the simulator phases start from.
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * metrics of a separate traced run. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. The exit code is
 * non-zero when any output check failed.
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "engine/fusion.h"
#include "obs/obs.h"
#include "perf/lowering_cache.h"
#include "phases.h"
#include "store/store.h"

namespace {

using namespace e2e;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload cold|warm "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--inject fingerprint|status] [--golden-dir DIR] "
                 "[--work-dir DIR] [--trace-out FILE] [--source STAMP]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
            if (o.workload == "cold")
                o.mode = Mode::Cold;
            else if (o.workload == "warm")
                o.mode = Mode::Warm;
            else
                usage("unknown workload");
        } else if (arg == "--seed") {
            o.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            o.seconds = std::stod(value());
            if (!(o.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (arg == "--trace") {
            o.trace = value() == "1";
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--inject") {
            const std::string what = value();
            if (what == "fingerprint")
                o.inject = Inject::Fingerprint;
            else if (what == "status")
                o.inject = Inject::Status;
            else
                usage("unknown --inject fault");
        } else if (arg == "--golden-dir") {
            o.goldenDir = value();
        } else if (arg == "--work-dir") {
            o.workDir = value();
        } else if (arg == "--trace-out") {
            o.traceOut = value();
        } else if (arg == "--source") {
            o.source = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    return o;
}

/** Refuse non-Release builds (escape hatch: TBD_BENCH_ALLOW_DEBUG=1). */
bool
guardBuildType()
{
    if (releaseBuild())
        return true;
    const char *allow = std::getenv("TBD_BENCH_ALLOW_DEBUG");
    if (allow == nullptr || std::strcmp(allow, "1") != 0) {
        std::fprintf(stderr,
                     "e2ebench: refusing to benchmark a '%s' build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release (or set "
                     "TBD_BENCH_ALLOW_DEBUG=1 to run anyway).\n",
                     E2E_BUILD_TYPE);
        return false;
    }
    std::fprintf(stderr, "e2ebench: warning: timing a '%s' build\n",
                 E2E_BUILD_TYPE);
    return true;
}

int
run(const Options &options)
{
    // Pin the program's switches so the environment cannot change what
    // is measured: store and fast paths on, obs off (the traced run
    // enables it only where it reads engine counters).
    tbd::store::setStoreEnabled(true);
    tbd::perf::setFastPathsEnabled(true);
    tbd::engine::setFusionEnabled(true);
    tbd::obs::setEnabled(false);
    freshDir(options.workDir);

    Report report;
    report.note(provenance(options));
    tbd::util::ThreadPool pool(2);
    Context ctx{options, report, pool};
    {
        // The untraced run gives 70% of its time to sweep passes, 20%
        // to the open-loop serve schedule and 10% to closed-loop hot
        // rounds (a cold pass takes 1.5 s, so the sweeps need the most
        // samples); the traced run a third each to sweeps, serving and
        // training. Training is traced only: its step time follows the
        // host's memory-bandwidth neighbours (README.md, Design choices).
        const double phase_s = options.seconds / 3.0;
        const double open_loop_s =
            options.trace ? phase_s : 0.2 * options.seconds;
        SweepPhase sweep(ctx);
        ServePhase serve(ctx, options.smoke ? 0.5 : open_loop_s);
        std::optional<TrainPhase> train;
        if (options.trace)
            train.emplace(ctx);

        // Set-up runs several times from a clean state; the median of
        // its CPU time is setup_s (wall time, which also counts store
        // writes waiting on the disk and other tenants holding the
        // CPUs, is in the notes). The last round's state is what gets
        // measured.
        const int rounds = options.smoke ? 1 : 5;
        std::vector<double> setup_s;
        std::vector<double> setup_wall_s;
        for (int r = 0; r < rounds; ++r) {
            const double c0 = processCpuMs();
            const auto t0 = Clock::now();
            sweep.setupRound();
            serve.setupRound();
            if (train)
                train->setupRound();
            setup_s.push_back((processCpuMs() - c0) / 1e3);
            setup_wall_s.push_back(msSince(t0) / 1e3);
        }
        report.note(distribution("setup_s", setup_s));
        report.note(distribution("setup_s (wall)", setup_wall_s));

        if (!options.trace) {
            report.metric("setup_s", median(setup_s), "s", rounds);
            // Alternate a second of open-loop serving, hot rounds and
            // sweep passes, so slow and fast stretches of a shared host
            // reach all of them alike. The serve schedule's chunks set
            // the number of rounds.
            //
            // peak_rss_mb is the median of the rounds' RSS high-water
            // marks, each taken from a heap trimmed of what earlier work
            // freed. Untrimmed, the mark mostly counted the free heap
            // that glibc's per-thread arenas kept from set-up, which
            // varied from 250 to 385 MB between runs of warm (see also
            // the single arena set in main()).
            const double rest_ms = (options.seconds - open_loop_s) * 1e3 /
                                   static_cast<double>(serve.chunks());
            std::vector<double> peak_mb;
            bool rss_reset = true;
            for (std::size_t c = 0; c < serve.chunks(); ++c) {
                malloc_trim(0);
                rss_reset = resetPeakRss() && rss_reset;
                serve.measureChunk(c);
                serve.measureHotRounds(rest_ms / 8.0);
                sweep.measureUnit(rest_ms * 7.0 / 8.0);
                peak_mb.push_back(peakRssMb());
            }
            report.metric("peak_rss_mb", median(peak_mb), "MB",
                          static_cast<std::int64_t>(peak_mb.size()));
            report.note(distribution("round peak_rss_mb", peak_mb));
            if (!rss_reset)
                report.note("warning: cannot reset the RSS high-water "
                            "mark; peak_rss_mb includes set-up");
            sweep.finishMeasure();
            serve.finishMeasure();
        } else {
            Tracer tracer;
            sweep.traced(phase_s, tracer);
            serve.traced(tracer);
            train->traced(phase_s, tracer);
            for (const auto &[name, st] : tracer.rollup())
                report.note("span " + name + ": count " +
                            std::to_string(st.count) + ", total_ms " +
                            std::to_string(st.totalMs) + ", self_ms " +
                            std::to_string(st.selfMs));
            if (!options.traceOut.empty() &&
                !tracer.writeJsonl(options.traceOut))
                report.fail("cannot write trace " + options.traceOut);
        }
    }
    removeDir(options.workDir);
    return report.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    // One malloc arena for every thread, set before any thread starts.
    // With glibc's per-thread arenas the resident heap after a trim
    // depended on which thread had allocated what during set-up, and
    // peak_rss_mb of identical runs spread by 10-15%.
    mallopt(M_ARENA_MAX, 1);
    const Options options = parseArgs(argc, argv);
    if (!guardBuildType())
        return 2;
    try {
        return run(options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 3;
    }
}
