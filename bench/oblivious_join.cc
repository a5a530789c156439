/**
 * @file
 * Strategy sweep for the oblivious equi-join workload.
 *
 * Compiles the fused paper-shape join kernel (two bitonic table
 * sorts as concurrent streams + the aligned merge) once per
 * StrategyRegistry fig13 rung on a Cinnamon-4 machine and prints one
 * JSON object with, per rung, the simulated latency and the
 * keyswitch traffic the rung induces (HBM and network bytes moved),
 * plus the program-level rotation profile (count and longest
 * rotate-to-rotate chain) that makes this workload stress the
 * keyswitch pass differently from the BSGS matvec suite. Everything
 * here is deterministic — the simulator is cycle-exact — so
 * scripts/check_bench.py gates the output against
 * bench/baselines/oblivious_join.json exactly.
 *
 *   build/bench/oblivious_join [chips]
 */

#include <cstdio>

#include "bench_args.h"
#include "bench_util.h"
#include "sim/simulator.h"
#include "workloads/oblivious_join.h"

using namespace cinnamon;

int
main(int argc, char **argv)
{
    const auto args =
        bench::parseCounts(argc, argv, "[chips]", {"chips"}, {4});
    const auto chips = static_cast<std::size_t>(args[0]);

    auto ctx = bench::makePaperContext();
    const auto shape = workloads::ObliviousJoinShape::paper();
    // Same input level the paper-suite catalog entry uses; the fused
    // kernel consumes shape.consumed() levels below it.
    const std::size_t level = 50;
    auto kernel = workloads::obliviousJoinKernel(*ctx, level, shape);

    std::size_t rotations = 0;
    for (const auto &op : kernel.ops())
        if (op.kind == compiler::CtOpKind::Rotate)
            ++rotations;
    const std::size_t chain = workloads::rotationChainDepth(kernel);

    const auto hw = bench::cinnamonHw(chips);
    const auto ladder =
        compiler::StrategyRegistry::global().fig13Ladder();

    std::printf("{\"benchmark\":\"oblivious_join\","
                "\"rows\":%zu,\"key_bits\":%d,\"chips\":%zu,"
                "\"ops\":%zu,\"rotations\":%zu,"
                "\"rotation_chain_depth\":%zu,"
                "\"strategies\":[",
                shape.rows, shape.key_bits, chips,
                kernel.ops().size(), rotations, chain);
    // The single-stream pieces back the sequential rung, which runs
    // on one chip and therefore cannot host the fused kernel's two
    // program streams (chips must divide evenly into stream groups).
    auto sort_kernel = workloads::bitonicSortKernel(
        *ctx, level, shape, "oj_bench_sort");
    auto merge_kernel = workloads::alignedMergeJoinKernel(
        *ctx, level - shape.sortLevels(), shape, "oj_bench_merge");

    bool first = true;
    for (const auto &rung : ladder) {
        const auto cfg = bench::strategyConfig(rung, chips, 2);
        double seconds;
        std::size_t instructions, hbm, net;
        if (rung.sequential) {
            // One chip: sort R, sort S, merge — back to back.
            const auto scfg = bench::strategyConfig(rung, chips, 1);
            const auto s =
                sim::simulate(bench::compileWith(*ctx, sort_kernel,
                                                 scfg)
                                  .machine,
                              hw);
            const auto m =
                sim::simulate(bench::compileWith(*ctx, merge_kernel,
                                                 scfg)
                                  .machine,
                              hw);
            seconds = 2 * s.seconds + m.seconds;
            instructions = 2 * s.instructions + m.instructions;
            hbm = 2 * s.bytes_moved_hbm + m.bytes_moved_hbm;
            net = 2 * s.bytes_moved_net + m.bytes_moved_net;
        } else {
            const auto sim = sim::simulate(
                bench::compileWith(*ctx, kernel, cfg).machine, hw);
            seconds = sim.seconds;
            instructions = sim.instructions;
            hbm = sim.bytes_moved_hbm;
            net = sim.bytes_moved_net;
        }
        std::printf("%s{\"strategy\":\"%s\",\"chips\":%zu,"
                    "\"seconds\":%.9f,\"instructions\":%zu,"
                    "\"ks_hbm_bytes\":%zu,\"ks_net_bytes\":%zu}",
                    first ? "" : ",", rung.name.c_str(), cfg.chips,
                    seconds, instructions, hbm, net);
        first = false;
        std::fprintf(stderr,
                     "  %-20s %.3f ms  hbm %zu B  net %zu B\n",
                     rung.name.c_str(), seconds * 1e3, hbm, net);
    }
    std::printf("]}\n");
    return 0;
}
