/**
 * @file
 * Strict command-line parsing for bench binaries whose arguments are
 * positional counts: `--help` prints the usage and exits 0; an
 * unknown flag, a value that is not a whole number, a count <= 0 or
 * too many arguments print the reason and exit 2. A bench therefore
 * never runs on a silently defaulted or zero count (which used to
 * write inf/nan into its JSON).
 */

#ifndef CINNAMON_BENCH_BENCH_ARGS_H_
#define CINNAMON_BENCH_BENCH_ARGS_H_

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace cinnamon::bench {

/**
 * Parse argv as up to names.size() positive counts, in order; absent
 * trailing arguments keep their `defaults` entry. `usage` is the
 * argument synopsis printed after the program name.
 */
inline std::vector<long>
parseCounts(int argc, char **argv, const char *usage,
            const std::vector<const char *> &names,
            std::vector<long> defaults)
{
    const char *prog = argc > 0 ? argv[0] : "bench";
    auto fail = [&](const std::string &reason) {
        std::fprintf(stderr, "%s: %s\nusage: %s %s\n", prog,
                     reason.c_str(), prog, usage);
        std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            std::printf("usage: %s %s\n", prog, usage);
            std::exit(0);
        }
    }
    if (static_cast<std::size_t>(argc - 1) > names.size())
        fail("too many arguments");
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const std::string name = names[i - 1];
        if (arg[0] == '-' && arg[1] == '-')
            fail(std::string("unknown flag '") + arg + "'");
        char *end = nullptr;
        errno = 0;
        const long v = std::strtol(arg, &end, 10);
        if (end == arg || *end != '\0' || errno == ERANGE)
            fail(name + " '" + arg + "' is not a whole number");
        if (v <= 0 || v > INT_MAX)
            fail(name + " must be a positive count, got " + arg);
        defaults[i - 1] = v;
    }
    return defaults;
}

} // namespace cinnamon::bench

#endif // CINNAMON_BENCH_BENCH_ARGS_H_
