/**
 * @file
 * Golden-value regression tests.
 *
 * The simulator is fully deterministic, so exact cycle counts for a
 * fixed (benchmark, strategy, budget) triple are stable across runs
 * and hosts. These tests pin a sample of them so that unintended
 * timing-model changes are caught immediately.
 *
 * If you change the timing model ON PURPOSE, re-derive the constants:
 * run each configuration below and paste the new numbers, noting the
 * model change in your commit message.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "config/presets.hh"
#include "core/simulator.hh"
#include "workload/workload.hh"

namespace ctcp {
namespace {

struct Golden
{
    const char *benchmark;
    int strategy;            // AssignStrategy enumerator value
    std::uint64_t cycles;
    std::uint64_t instructions;
};

// Baseline machine, 50k-instruction budget, default knobs.
constexpr Golden goldens[] = {
    {"gzip", 0, 45474ull, 50002ull},
    {"gzip", 1, 36248ull, 50002ull},
    {"gzip", 2, 34538ull, 50004ull},
    {"gzip", 3, 36972ull, 50002ull},
    {"twolf", 0, 57932ull, 50000ull},
    {"twolf", 1, 51154ull, 50000ull},
    {"twolf", 2, 52381ull, 50001ull},
    {"twolf", 3, 51704ull, 50005ull},
    {"mcf", 0, 33650ull, 50005ull},
    {"mcf", 1, 23740ull, 50005ull},
    {"mcf", 2, 24161ull, 50006ull},
    {"mcf", 3, 26694ull, 50003ull},
    {"adpcm_enc", 0, 77838ull, 50007ull},
    {"adpcm_enc", 1, 77547ull, 50007ull},
    {"adpcm_enc", 2, 82534ull, 50005ull},
    {"adpcm_enc", 3, 89840ull, 50007ull},
};

// Without a printer gtest shows a Golden as raw bytes, which include the
// address of the benchmark-name literal. That address moves with every
// run under ASLR, and gtest_discover_tests copies the printed parameter
// into each CTest test name, so the names would change on every build.
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.benchmark << '/'
        << assignStrategyName(static_cast<AssignStrategy>(g.strategy));
}

class GoldenRegression : public ::testing::TestWithParam<Golden>
{};

TEST_P(GoldenRegression, ExactCycleCount)
{
    const Golden &g = GetParam();
    SimConfig cfg = baseConfig();
    cfg.assign.strategy = static_cast<AssignStrategy>(g.strategy);
    cfg.instructionLimit = 50'000;
    Program p = workloads::build(g.benchmark);
    const SimResult r = CtcpSimulator(cfg, p).run();
    EXPECT_EQ(r.cycles, g.cycles);
    EXPECT_EQ(r.instructions, g.instructions);
}

INSTANTIATE_TEST_SUITE_P(
    Baseline, GoldenRegression, ::testing::ValuesIn(goldens),
    [](const ::testing::TestParamInfo<Golden> &info) {
        std::string name = std::string(info.param.benchmark) + "_" +
            assignStrategyName(
                static_cast<AssignStrategy>(info.param.strategy));
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
} // namespace ctcp
