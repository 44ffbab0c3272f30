/**
 * @file
 * Train phase (traced runs): real FP32 training on one thread,
 * bypassing every simulator layer. TinyResNet (3x16x16 images, batch 32, SGD with
 * momentum) and TinySeq2Seq on SyntheticTranslation (batch 16) are
 * rebuilt from the seed in every pass, take 10 unmeasured warm-up
 * steps, then alternate measured steps. Their loss sequences must be
 * bitwise equal in every pass.
 */

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>

#include "data/synthetic.h"
#include "engine/network.h"
#include "engine/optimizer.h"
#include "layers/loss.h"
#include "models/functional.h"
#include "obs/obs.h"
#include "phases.h"

namespace e2e {

namespace {

using namespace tbd;

constexpr int kWarmupSteps = 10;
constexpr int kMeasuredSteps = 40; ///< per model, per pass
constexpr std::int64_t kClasses = 10;
constexpr std::int64_t kImageBatch = 32;
constexpr std::int64_t kVocab = 16;
constexpr std::int64_t kSeqLen = 8;
constexpr std::int64_t kSeqBatch = 16;

/** One model's training state: network, optimizer, data and loss. */
class Trainee
{
  public:
    virtual ~Trainee() = default;

    /** Draw the next mini-batch (outside any timing). */
    virtual void nextBatch() = 0;

    /**
     * One training step on the current batch, the same calls
     * engine::Session::step makes. Returns the loss.
     */
    double step(Tracer *tr, SpanId parent, std::int64_t item)
    {
        MaybeSpan root(tr, "engine.step", parent, item);
        {
            MaybeSpan s(tr, "engine.zero_grads", root.id(), item);
            net_->zeroGrads();
        }
        tensor::Tensor out;
        {
            MaybeSpan s(tr, "engine.forward", root.id(), item);
            out = net_->forward(input(), /*training=*/true);
        }
        double loss = 0.0;
        tensor::Tensor dout;
        {
            MaybeSpan s(tr, "engine.loss", root.id(), item);
            dout = lossGrad(out, loss);
        }
        {
            MaybeSpan s(tr, "engine.backward", root.id(), item);
            net_->backward(dout);
        }
        {
            MaybeSpan s(tr, "engine.optimizer", root.id(), item);
            opt_.step(net_->params());
        }
        return loss;
    }

  protected:
    Trainee(engine::Network net, float lr)
        : net_(std::make_unique<engine::Network>(std::move(net))), opt_(lr, 0.9f)
    {
    }
    virtual const tensor::Tensor &input() const = 0;
    virtual tensor::Tensor lossGrad(const tensor::Tensor &out,
                                    double &loss) = 0;

    std::unique_ptr<engine::Network> net_;
    engine::SgdMomentum opt_;
    layers::SoftmaxCrossEntropy ce_;
};

class ResNetTrainee : public Trainee
{
  public:
    static std::unique_ptr<Trainee> make(std::uint64_t seed)
    {
        util::Rng rng(seed);
        return std::unique_ptr<Trainee>(new ResNetTrainee(
            models::buildTinyResNet(rng, kClasses, 3, 16), seed));
    }
    void nextBatch() override { batch_ = data_.nextBatch(kImageBatch); }

  private:
    ResNetTrainee(engine::Network net, std::uint64_t seed)
        : Trainee(std::move(net), 0.05f), data_(kClasses, 3, 16, seed + 1)
    {
    }
    const tensor::Tensor &input() const override { return batch_.images; }
    tensor::Tensor lossGrad(const tensor::Tensor &out, double &loss) override
    {
        loss = ce_.forward(out, batch_.labels);
        return ce_.backward();
    }

    data::SyntheticImages data_;
    data::ImageBatch batch_;
};

class Seq2SeqTrainee : public Trainee
{
  public:
    static std::unique_ptr<Trainee> make(std::uint64_t seed)
    {
        util::Rng rng(seed);
        return std::unique_ptr<Trainee>(new Seq2SeqTrainee(
            models::buildTinySeq2Seq(rng, kVocab, 16, 32, 2), seed));
    }
    void nextBatch() override
    {
        batch_ = data_.nextBatch(kSeqBatch);
        flat_.clear();
        for (const auto &ids : batch_.tgtIds)
            flat_.insert(flat_.end(), ids.begin(), ids.end());
    }

  private:
    Seq2SeqTrainee(engine::Network net, std::uint64_t seed)
        : Trainee(std::move(net), 0.1f), data_(kVocab, kSeqLen, seed + 1)
    {
    }
    const tensor::Tensor &input() const override { return batch_.src; }
    tensor::Tensor lossGrad(const tensor::Tensor &out, double &loss) override
    {
        // Per-token classification: [N, T, V] -> [N*T, V].
        const tensor::Tensor flat =
            out.reshaped(tensor::Shape{kSeqBatch * kSeqLen, kVocab});
        loss = ce_.forward(flat, flat_);
        return ce_.backward().reshaped(out.shape());
    }

    data::SyntheticTranslation data_;
    data::SequenceBatch batch_;
    std::vector<std::int64_t> flat_;
};

/** Losses of one pass, per model, warm-up steps included. */
struct PassLosses
{
    std::vector<double> resnet;
    std::vector<double> seq2seq;
};

} // namespace

struct TrainPhase::Impl
{
    Context &ctx;
    util::ThreadPool serial{1}; ///< the engine runs on one thread
    std::uint64_t resnetSeed;
    std::uint64_t seqSeed;
    std::unique_ptr<Trainee> resnet;
    std::unique_ptr<Trainee> seq2seq;
    PassLosses reference;
    PassLosses current;

    explicit Impl(Context &c)
        : ctx(c),
          resnetSeed(mixSeed(c.options.seed, 20)),
          seqSeed(mixSeed(c.options.seed, 21))
    {
    }

    /** Build both models from the seed and take the warm-up steps. */
    void warmUp()
    {
        util::ThreadPool::Scope scope(serial);
        resnet = ResNetTrainee::make(resnetSeed);
        seq2seq = Seq2SeqTrainee::make(seqSeed);
        current = {};
        for (int i = 0; i < kWarmupSteps; ++i) {
            resnet->nextBatch();
            current.resnet.push_back(resnet->step(nullptr, 0, -1));
            seq2seq->nextBatch();
            current.seq2seq.push_back(seq2seq->step(nullptr, 0, -1));
        }
    }

    /** Alternate measured steps; append each step's ms. */
    void measuredSteps(int steps, Tracer *tr, std::vector<double> &resnet_ms,
                       std::vector<double> &seq_ms)
    {
        util::ThreadPool::Scope scope(serial);
        MaybeSpan pass(tr, "engine.pass", 0, -1);
        for (int i = 0; i < steps; ++i) {
            {
                MaybeSpan s(tr, "engine.data", pass.id(), 2 * i);
                resnet->nextBatch();
            }
            auto t0 = Clock::now();
            current.resnet.push_back(resnet->step(tr, pass.id(), 2 * i));
            resnet_ms.push_back(msSince(t0));
            {
                MaybeSpan s(tr, "engine.data", pass.id(), 2 * i + 1);
                seq2seq->nextBatch();
            }
            t0 = Clock::now();
            current.seq2seq.push_back(
                seq2seq->step(tr, pass.id(), 2 * i + 1));
            seq_ms.push_back(msSince(t0));
        }
    }

    /** Compare this pass's losses with the first pass's. */
    void checkLosses()
    {
        ctx.report.attempt(static_cast<std::int64_t>(
            current.resnet.size() + current.seq2seq.size()));
        auto check = [&](const std::vector<double> &got,
                         std::vector<double> &ref, const char *model) {
            if (ref.size() < got.size() &&
                std::equal(ref.begin(), ref.end(), got.begin(),
                           [](double a, double b) {
                               return std::memcmp(&a, &b, sizeof a) == 0;
                           })) {
                ref = got; // extend the reference (set-up passes are shorter)
                return;
            }
            const std::vector<double> prefix(
                ref.begin(),
                ref.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(ref.size(), got.size())));
            const std::vector<double> mine(
                got.begin(),
                got.begin() + static_cast<std::ptrdiff_t>(prefix.size()));
            if (!sameBits(prefix, mine))
                ctx.report.fail(std::string(model) +
                                " loss sequence differs between passes");
        };
        check(current.resnet, reference.resnet, "TinyResNet");
        check(current.seq2seq, reference.seq2seq, "TinySeq2Seq");
    }
};

TrainPhase::TrainPhase(Context &ctx) : impl_(std::make_unique<Impl>(ctx)) {}

TrainPhase::~TrainPhase() = default;

void
TrainPhase::setupRound()
{
    impl_->warmUp();
    impl_->checkLosses();
}

void
TrainPhase::traced(double seconds, Tracer &tracer)
{
    Impl &m = *impl_;
    const int steps = m.ctx.options.smoke ? 3 : kMeasuredSteps;
    std::vector<double> untraced_r, untraced_s, traced_r, traced_s;
    std::int64_t fusion_hit = 0, fusion_miss = 0, arena_bytes = 0;
    std::int64_t traced_steps = 0;
    const auto start = Clock::now();
    do {
        m.warmUp();
        m.measuredSteps(steps, nullptr, untraced_r, untraced_s);
        m.checkLosses();
        m.warmUp();
        // The engine's own counters (fusion decisions, arena bytes)
        // are read from the obs registry, enabled only for these steps.
        obs::resetAll();
        obs::setEnabled(true);
        m.measuredSteps(steps, &tracer, traced_r, traced_s);
        obs::setEnabled(false);
        auto &reg = obs::MetricsRegistry::global();
        fusion_hit += reg.counter("engine.fusion.hit").value();
        fusion_miss += reg.counter("engine.fusion.miss").value();
        arena_bytes += reg.counter("util.arena.bytes").value();
        traced_steps += 2 * steps;
        m.checkLosses();
    } while (!m.ctx.options.smoke && msSince(start) < seconds * 1e3);
    obs::resetAll();

    const auto roll = tracer.rollup();
    auto per_step = [&](const char *name) {
        auto it = roll.find(name);
        return it == roll.end()
                   ? 0.0
                   : it->second.selfMs / static_cast<double>(traced_steps);
    };
    Report &r = m.ctx.report;
    r.metric("engine.forward_ms", per_step("engine.forward"), "ms",
             traced_steps);
    r.metric("engine.backward_ms", per_step("engine.backward"), "ms",
             traced_steps);
    r.metric("engine.optimizer_ms", per_step("engine.optimizer"), "ms",
             traced_steps);
    r.metric("engine.fusion.hit_ratio",
             fusion_hit + fusion_miss > 0
                 ? static_cast<double>(fusion_hit) /
                       static_cast<double>(fusion_hit + fusion_miss)
                 : 0.0,
             "ratio", fusion_hit + fusion_miss);
    r.metric("util.arena_bytes",
             static_cast<double>(arena_bytes) /
                 static_cast<double>(traced_steps),
             "bytes", traced_steps);
    const double untraced = median(untraced_r) + median(untraced_s);
    const double traced_ms = median(traced_r) + median(traced_s);
    r.metric("trace.engine_overhead_ms", (traced_ms - untraced) / 2.0, "ms",
             traced_steps);
    for (const char *name : {"engine.pass", "engine.step"})
        r.note("trace: " + std::string(name) + " covered by child spans " +
               std::to_string(tracer.coverage(name)));
}

} // namespace e2e
