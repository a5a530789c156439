/**
 * @file
 * Paper phase: the Table 2 grid (bootstrap, ResNet-20, HELR, BERT on
 * Cinnamon-M/4/8/12) regenerated through BenchmarkRunner::run at
 * paper parameters, from a fresh runner, in a seed-permuted cell
 * order. Every cell must equal its pinned value exactly; the grid's
 * wall time is `suite_s`. The traced run re-compiles each distinct
 * kernel pass by pass and re-simulates it, giving the compiler and
 * simulator layers.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "compiler/lowering.h"
#include "compiler/pass.h"
#include "workloads/benchmarks.h"

namespace perfbench {

using namespace cinnamon;

namespace {

/** One machine column of Table 2. */
struct Machine
{
    const char *name;
    std::size_t chips;
    std::size_t group;
    sim::HardwareConfig hw;
};

sim::HardwareConfig
cinnamonHw(std::size_t chips)
{
    sim::HardwareConfig hw = sim::HardwareConfig::cinnamonChip();
    hw.topology =
        chips > 8 ? sim::Topology::Switch : sim::Topology::Ring;
    return hw;
}

/**
 * Table 2 in simulated seconds, row = benchmark, column = machine,
 * as the simulator computes it at this revision (bit patterns).
 */
constexpr double kPinned[4][4] = {
    {0x1.2623c93b7b5edp-7, 0x1.0f97e30b27a66p-7,
     0x1.21c00195dfd95p-7, 0x1.59a7d195b45ccp-7}, // bootstrap
    {0x1.e57f8d3189ee6p-2, 0x1.bdc6ff2d7229p-2,
     0x1.e1122af23e6ddp-2, 0x1.20974fac2982fp-1}, // resnet
    {0x1.5006b93548eabp-3, 0x1.332e3ed7ac23ep-3,
     0x1.332e3ed7ac23ep-4, 0x1.332e3ed7ac23ep-4}, // helr
    {0x1.986b03d9ff3a7p+3, 0x1.78e0c22abaf24p+3,
     0x1.a8c5f59c689acp+2, 0x1.3bd1d5f616474p+2}, // bert
};

} // namespace

class PaperFixture
{
  public:
    PaperFixture()
    {
        fhe::CkksParams p = fhe::CkksParams::makePaper();
        p.levels = 52;
        p.special = (p.levels + p.dnum - 1) / p.dnum;
        ctx = std::make_unique<fhe::CkksContext>(p);
        suite.push_back(workloads::bootstrapBenchmark(*ctx));
        suite.push_back(workloads::resnetBenchmark(*ctx));
        suite.push_back(workloads::helrBenchmark(*ctx));
        suite.push_back(workloads::bertBenchmark(*ctx));
        machines = {
            {"M", 1, 1, sim::HardwareConfig::monolithicChip()},
            {"4", 4, 4, cinnamonHw(4)},
            {"8", 8, 4, cinnamonHw(8)},
            {"12", 12, 4, cinnamonHw(12)},
        };
    }

    /** Chips per stream for cell (b, m), as bench/table2 deploys. */
    std::size_t
    groupOf(std::size_t b, std::size_t m) const
    {
        const bool narrow = suite[b].name == "bootstrap" ||
                            suite[b].name == "resnet";
        return narrow ? machines[m].chips
                      : std::min(machines[m].group, machines[m].chips);
    }

    std::unique_ptr<fhe::CkksContext> ctx;
    std::vector<workloads::Benchmark> suite;
    std::vector<Machine> machines;
};

void
PaperFixtureDeleter::operator()(PaperFixture *fx) const
{
    delete fx;
}

PaperPtr
makePaperFixture(SpanLog *spans)
{
    SpanLog::Scope s(spans, "setup.paper", "setup");
    return PaperPtr(new PaperFixture());
}

namespace {

/**
 * Traced-run layer probe: compile every distinct kernel of the grid
 * pass by pass through the pipeline's public pass list, simulate it,
 * and compare with what the runner compiled.
 */
void
probeCompilerAndSim(PaperFixture &fx, workloads::BenchmarkRunner &runner,
                    SpanLog *spans, Result &res)
{
    compiler::PassManager pm;
    compiler::buildCompilerPipeline(pm);
    std::map<std::string, double> pass_ms, pass_out;
    double instructions = 0, runner_instructions = 0;
    double sim_ms = 0, sim_insts = 0;
    std::map<std::string, bool> seen;

    for (std::size_t b = 0; b < fx.suite.size(); ++b) {
        for (std::size_t m = 0; m < fx.machines.size(); ++m) {
            const std::size_t group = fx.groupOf(b, m);
            const auto &hw = fx.machines[m].hw;
            for (const auto &phase : fx.suite[b].phases) {
                compiler::CompilerConfig cfg;
                cfg.chips = group;
                cfg.num_streams = 1;
                cfg.phys_regs = hw.phys_regs;
                const std::string key =
                    phase.kernel->name() + ":" +
                    std::to_string(
                        compiler::fingerprintOf(*phase.kernel)) +
                    ":" + compiler::cacheKeyOf(cfg);
                if (seen.count(key) != 0)
                    continue;
                seen[key] = true;

                compiler::PassContext pcx;
                pcx.ctx = fx.ctx.get();
                pcx.prog = phase.kernel.get();
                pcx.cfg = cfg;
                for (const auto &pass : pm.passes()) {
                    SpanLog::Scope s(spans, "compiler." + pass.name,
                                     "compiler");
                    const auto t0 = Clock::now();
                    pass.run(pcx);
                    if (pcx.cfg.verify_ir && pass.verify)
                        pass.verify(pcx);
                    pass_ms[pass.name] += msSince(t0);
                    if (pass.count)
                        pass_out[pass.name] +=
                            static_cast<double>(pass.count(pcx));
                }
                const auto n = static_cast<double>(
                    pcx.out.machine.totalInstructions());
                instructions += n;
                runner_instructions += static_cast<double>(
                    runner.compiled(*phase.kernel, group, hw.phys_regs,
                                    {})
                        .machine.totalInstructions());

                SpanLog::Scope s(spans, "sim.simulate", "sim");
                const auto t0 = Clock::now();
                const auto r = sim::simulate(pcx.out.machine, hw);
                sim_ms += msSince(t0);
                sim_insts += static_cast<double>(r.instructions);
                if (b == 0 && m == 2) {
                    res.metric("sim.hbm_bytes",
                               static_cast<double>(r.bytes_moved_hbm),
                               "B");
                    res.metric("sim.net_bytes",
                               static_cast<double>(r.bytes_moved_net),
                               "B");
                    res.metric("sim.compute_util",
                               r.computeUtilization(hw), "ratio");
                }
            }
        }
    }
    for (const auto &[name, ms] : pass_ms) {
        res.metric("compiler.pass." + name + ".ms", ms, "ms");
        res.metric("compiler.pass." + name + ".ops_out", pass_out[name],
                   "count");
    }
    res.metric("compiler.instructions", instructions, "count");
    res.check(instructions == runner_instructions,
              "pass-by-pass compile disagrees with Compiler::compile "
              "on the instruction count");
    // Every runner miss is a cold compile or a cold simulation; the
    // distinct compile configurations are the compiles.
    const CacheStats cs = runner.cacheStats();
    res.metric("workloads.runner.compiles",
               static_cast<double>(seen.size()), "count");
    res.metric("workloads.runner.sims",
               static_cast<double>(cs.misses - seen.size()), "count");
    res.metric("sim.host_ms", sim_ms, "ms");
    res.metric("sim.host_ns_per_inst",
               sim_insts > 0 ? sim_ms * 1e6 / sim_insts : 0.0, "ns");
}

} // namespace

void
runPaper(PaperFixture &fx, const Args &args, SpanLog *spans, Result &res)
{
    // Cell order is a seeded permutation: the set of cold compiles
    // and simulations is the same in any order, so suite_s measures
    // the grid, not one lucky order.
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    for (std::size_t b = 0; b < fx.suite.size(); ++b)
        for (std::size_t m = 0; m < fx.machines.size(); ++m)
            cells.emplace_back(b, m);
    uint64_t state = args.seed ^ 0x7ab1e2ull;
    for (std::size_t i = cells.size(); i > 1; --i)
        std::swap(cells[i - 1], cells[splitmix64(state) % i]);

    double grid[4][4] = {};
    workloads::BenchmarkRunner runner(*fx.ctx);
    const auto t0 = Clock::now();
    {
        SpanLog::Scope phase(spans, "phase.paper", "bench");
        for (const auto &[b, m] : cells) {
            SpanLog::Scope s(spans, "workloads.run", "workloads");
            grid[b][m] = runner
                             .run(fx.suite[b], fx.machines[m].chips,
                                  fx.machines[m].hw, fx.groupOf(b, m))
                             .seconds;
        }
    }
    const double suite_s = msSince(t0) / 1e3;

    uint64_t bad = 0;
    for (std::size_t b = 0; b < 4; ++b) {
        for (std::size_t m = 0; m < 4; ++m) {
            if (std::memcmp(&grid[b][m], &kPinned[b][m],
                            sizeof(double)) != 0) {
                std::fprintf(stderr, "table2 %s C-%s: %a, pinned %a\n",
                             fx.suite[b].name.c_str(),
                             fx.machines[m].name, grid[b][m],
                             kPinned[b][m]);
                ++bad;
                res.check(false, "Table 2 cell " + fx.suite[b].name +
                                     " on Cinnamon-" +
                                     fx.machines[m].name +
                                     " differs from its pinned value");
            }
        }
    }
    res.ops(cells.size(), bad);
    res.metric("suite_s", suite_s, "s");
    res.detail["paper.cells"] = static_cast<double>(cells.size());

    if (!spans->enabled())
        return;
    res.metric("sim.bootstrap_c8_s", grid[0][2], "sim_s");
    res.metric("sim.bert_c12_s", grid[3][3], "sim_s");
    probeCompilerAndSim(fx, runner, spans, res);
}

} // namespace perfbench
