/**
 * @file
 * Emulate phase: bit-exact execution of the compiled keyswitch
 * kernel (one rotation) at n=2^15, 12 levels, on 1 chip and on 8
 * chips, with the emulator's chip advance on the shared TaskPool.
 *
 * Set-up owns the context, the keys, both compiles and a warm-up
 * execution per shape (evaluation keys materialised). Measurement
 * alternates the two shapes, re-binding a different pre-encrypted
 * seeded input before every execution so the pre-store skip never
 * fires, and times only EmulateBackend::execute. It runs in several
 * blocks spread over the run, so a short burst of host contention
 * moves one block rather than the median. Checks: a serial
 * execution reproduces the pooled digest on the same input, and a
 * sampled output decrypts to the fhe::Evaluator rotation.
 */

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "common/random.h"
#include "compiler/lowering.h"
#include "exec/backend.h"
#include "layers.h"
#include "workloads/kernels.h"

namespace perfbench {

using namespace cinnamon;

namespace {

constexpr std::size_t kLogN = 15;
constexpr std::size_t kLevels = 12;
constexpr std::size_t kInputLevel = 8;
constexpr std::size_t kPhysRegs = 64;
constexpr std::size_t kInputs = 4;
const std::size_t kShapes[2] = {1, 8};

} // namespace

class EmulateFixture
{
  public:
    EmulateFixture(const Args &args)
        : ctx(fhe::CkksParams::makeTest(1 << kLogN, kLevels, 3)),
          encoder(ctx), keygen(ctx, args.seed ^ 0xe31ull),
          sk(keygen.secretKey()), eval(ctx),
          kernel(workloads::keyswitchKernel(ctx, kInputLevel))
    {
        Rng rng(args.seed ^ 0x1d7u);
        for (std::size_t i = 0; i < kInputs; ++i) {
            std::vector<fhe::Cplx> v(ctx.slots());
            for (auto &x : v)
                x = fhe::Cplx(rng.uniformReal(-1.0, 1.0), 0.0);
            auto plain = encoder.encode(v, kInputLevel);
            inputs.push_back(
                eval.encrypt(plain, ctx.params().scale, sk, rng));
            values.push_back(std::move(v));
        }
        for (std::size_t s = 0; s < 2; ++s) {
            compiler::CompilerConfig cfg;
            cfg.chips = kShapes[s];
            cfg.num_streams = 1;
            cfg.phys_regs = kPhysRegs;
            compiled[s] = compiler::Compiler(ctx, cfg).compile(kernel);
            runtime[s] = std::make_unique<compiler::ProgramRuntime>(
                ctx, encoder, keygen, sk);
            runtime[s]->bindInput("x", inputs[0]);
            exec::EmulateBackend(*runtime[s], 0).execute(compiled[s]);
        }
    }

    fhe::CkksContext ctx;
    fhe::Encoder encoder;
    fhe::KeyGenerator keygen;
    fhe::SecretKey sk;
    fhe::Evaluator eval;
    compiler::Program kernel;
    std::vector<fhe::Ciphertext> inputs;
    std::vector<std::vector<fhe::Cplx>> values;
    compiler::CompiledProgram compiled[2];
    std::unique_ptr<compiler::ProgramRuntime> runtime[2];
    std::size_t next_input = 1;

    /** Pooled execution times per shape, over every block. */
    std::vector<double> ms[2];
    exec::ExecutionReport report[2]; ///< last pooled execution
    std::size_t last_input[2] = {0, 0};
};

void
EmulateFixtureDeleter::operator()(EmulateFixture *fx) const
{
    delete fx;
}

EmulatePtr
makeEmulateFixture(const Args &args, SpanLog *spans)
{
    SpanLog::Scope s(spans, "setup.emulate", "setup");
    return EmulatePtr(new EmulateFixture(args));
}

namespace {

/** Re-bind the next input and execute once; returns wall ms. */
double
executeOnce(EmulateFixture &fx, std::size_t shape, std::size_t workers,
            std::size_t input, SpanLog *spans,
            exec::ExecutionReport *report)
{
    fx.runtime[shape]->bindInput("x", fx.inputs[input]);
    exec::EmulateBackend backend(*fx.runtime[shape], workers);
    SpanLog::Scope s(spans, "exec.execute", "isa");
    const auto t0 = Clock::now();
    *report = backend.execute(fx.compiled[shape]);
    return msSince(t0);
}

/** Opcode class of the per-layer isa.op.<class>.count metrics. */
const char *
opClass(isa::Opcode op)
{
    switch (op) {
    case isa::Opcode::Ntt:
    case isa::Opcode::Intt: return "ntt";
    case isa::Opcode::BConv:
    case isa::Opcode::Mod: return "baseconv";
    case isa::Opcode::Add:
    case isa::Opcode::Sub:
    case isa::Opcode::Mul:
    case isa::Opcode::AddScalar:
    case isa::Opcode::SubScalar:
    case isa::Opcode::MulScalar: return "mac";
    case isa::Opcode::Automorph: return "automorph";
    case isa::Opcode::Bcast:
    case isa::Opcode::Agg: return "collective";
    default: return nullptr;
    }
}

} // namespace

void
measureEmulate(EmulateFixture &fx, double seconds, SpanLog *spans)
{
    SpanLog::Scope phase(spans, "phase.emulate", "bench");
    const auto t0 = Clock::now();
    constexpr std::size_t kMinPerShape = 5;
    for (std::size_t n = 0;
         msSince(t0) < seconds * 1e3 || n < kMinPerShape; ++n) {
        for (std::size_t s = 0; s < 2; ++s) {
            fx.last_input[s] = fx.next_input++ % kInputs;
            fx.ms[s].push_back(executeOnce(fx, s, 0, fx.last_input[s],
                                           spans, &fx.report[s]));
        }
    }
}

void
finishEmulate(EmulateFixture &fx, SpanLog *spans, Result &res)
{
    const auto &ms = fx.ms;
    const auto &report = fx.report;
    const auto &last_input = fx.last_input;
    res.metric("run_ms_1chip", median(ms[0]), "ms");
    res.metric("run_ms_8chip", median(ms[1]), "ms");
    res.detail["emulate.executions_per_shape"] =
        static_cast<double>(ms[0].size());

    // Serial ≡ pooled: the last pooled input, once more with one
    // worker, must reproduce the digest bit for bit.
    uint64_t bad = 0;
    std::vector<double> serial_ms[2];
    const std::size_t serial_reps = spans->enabled() ? 5 : 1;
    for (std::size_t s = 0; s < 2; ++s) {
        const std::size_t in = last_input[s];
        const uint64_t pooled = report[s].digest;
        for (std::size_t r = 0; r < serial_reps; ++r) {
            exec::ExecutionReport serial;
            serial_ms[s].push_back(
                executeOnce(fx, s, 1, in, spans, &serial));
            if (serial.digest != pooled) {
                ++bad;
                res.check(false, "emulate: serial digest differs from "
                                 "pooled on " +
                                     std::to_string(kShapes[s]) +
                                     " chip(s)");
            }
        }
    }

    // Decrypt the 8-chip output and compare with the reference
    // evaluator's rotation of the same input.
    {
        const std::size_t in = last_input[1];
        const auto &y = report[1].outputs.at("y");
        auto gks = fx.keygen.galoisKeys(fx.sk, {1});
        const auto ref = fx.eval.rotate(fx.inputs[in], 1, gks);
        const auto got = fx.encoder.decode(fx.eval.decrypt(y, fx.sk),
                                           y.scale);
        const auto want = fx.encoder.decode(
            fx.eval.decrypt(ref, fx.sk), ref.scale);
        double err = 0.0;
        for (std::size_t i = 0; i < got.size(); ++i)
            err = std::max(err, std::abs(got[i] - want[i]));
        // Both must also be the plaintext rotation of the input.
        double plain_err = 0.0;
        const auto &x = fx.values[in];
        for (std::size_t i = 0; i < got.size(); ++i)
            plain_err = std::max(
                plain_err, std::abs(got[i] - x[(i + 1) % x.size()]));
        res.detail["emulate.decrypt_max_err"] = err;
        res.detail["emulate.plain_max_err"] = plain_err;
        const bool ok = err < 1e-3 && plain_err < 1e-3;
        if (!ok)
            ++bad;
        res.check(ok, "emulate: compiled rotation does not decrypt to "
                      "the evaluator's rotation within 1e-3");
    }
    res.ops(ms[0].size() + ms[1].size() + 2 * serial_reps + 1, bad);

    if (!spans->enabled())
        return;
    // isa: exact counts from the emulator's own statistics — opcode
    // classes of the 8-chip program (so collectives show), limb ops
    // of the 1-chip one.
    std::map<std::string, double> by_class;
    for (const auto &[op, n] : report[1].emu_stats.executed)
        if (const char *c = opClass(op))
            by_class[c] += static_cast<double>(n);
    for (const char *c :
         {"ntt", "baseconv", "mac", "automorph", "collective"})
        res.metric(std::string("isa.op.") + c + ".count", by_class[c],
                   "count");
    const auto ops1 = static_cast<double>(report[0].emu_stats.total());
    res.metric("isa.limb_ops", ops1, "count");
    res.metric("isa.limb_ops_per_s", ops1 / (median(ms[0]) / 1e3),
               "1/s");
    res.metric("pool.parallel_speedup_1chip",
               median(serial_ms[0]) / median(ms[0]), "ratio");
    res.metric("pool.parallel_speedup_8chip",
               median(serial_ms[1]) / median(ms[1]), "ratio");
    probeRnsKernels(fx.ctx, spans, res);
}

} // namespace perfbench
