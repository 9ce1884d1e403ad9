// The benchmark's own tests: each injects one fault into real outputs and
// shows that the output checks count the operation as failed, and that
// unaltered outputs pass.
//
//   perfbench_selftest <work-dir>
//
// Exits non-zero when any test fails.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

/// One camera-pill scenario with a small compiler search, asked twice.
std::unique_ptr<Workload> tiny_workload(bool fabric) {
    auto workload = std::make_unique<Workload>();
    workload->fabric = fabric;
    workload->apps.push_back(std::make_unique<teamplay::usecases::UseCaseApp>(
        teamplay::usecases::make_camera_pill_app()));
    const auto& app = *workload->apps.back();
    Scenario scenario;
    scenario.label = "pill";
    scenario.program = &app.program;
    scenario.platform = &app.platform;
    scenario.csl_source = app.csl_source;
    scenario.options.compiler.population = 4;
    scenario.options.compiler.iterations = 4;
    workload->distinct.push_back(std::move(scenario));
    workload->stream = {{0}, {0}};
    return workload;
}

struct Fixture {
    std::unique_ptr<Workload> workload;
    std::vector<std::string> reference;  ///< fabric only
    Round round;
};

Fixture make_fixture(bool fabric, const fs::path& dir) {
    Fixture fixture;
    fixture.workload = tiny_workload(fabric);
    if (fabric) fixture.reference = reference_certificates(*fixture.workload);
    Recorder recorder(false);
    fixture.round = run_round(*fixture.workload, dir, 1,
                              fabric ? &fixture.reference : nullptr, recorder);
    return fixture;
}

Verdict judge(const Fixture& fixture) {
    return check_round(*fixture.workload, fixture.round, 1);
}

/// At least one operation failed, and for the expected reason.
bool caught(const Verdict& verdict, const std::string& reason) {
    for (const auto& failure : verdict.failures)
        if (failure.find(reason) != std::string::npos)
            return verdict.failed >= 1;
    return false;
}

/// Replace the answer to the first cold-pass ask by `report`, judged on
/// receipt as the pass judges every answer.
void receive(Fixture& fixture, const teamplay::core::ToolchainReport& report) {
    const Scenario& scenario = fixture.workload->distinct.front();
    fixture.round.cold_failures.front() = check_cold_answer(
        scenario, report, nullptr,
        fixture.reference.empty() ? nullptr : &fixture.reference.front());
}

int failures = 0;

void expect(bool ok, const std::string& name) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", name.c_str());
    if (!ok) ++failures;
}

}  // namespace

int main(int argc, char** argv) {
    const fs::path work = argc > 1 ? fs::path(argv[1]) : fs::path(".");
    const fs::path dir = work / "selftest-store";
    const fs::path empty = work / "selftest-empty";

    for (const bool fabric : {false, true}) {
        const auto fixture = make_fixture(fabric, dir);
        const auto verdict = judge(fixture);
        expect(verdict.failed == 0 && verdict.attempted == 3,
               std::string("unaltered ") + (fabric ? "fabric" : "engine") +
                   " outputs pass every check");
    }
    {
        auto fixture = make_fixture(false, dir);
        auto report = *fixture.round.first.front();
        auto& result = report.certificate.results.front();
        result.analysed *= 0.5;  // claims a bound its proof does not support
        receive(fixture, report);
        expect(caught(judge(fixture), "certificate does not verify"),
               "a tampered certificate counts as a failed operation");
    }
    {
        auto fixture = make_fixture(false, dir);
        auto& report = *fixture.round.first.front();
        const auto& entry = report.schedule.entries.front();
        for (auto& front : report.fronts)
            if (front.task == entry.task &&
                front.core_class == entry.core_class)
                front.versions[entry.version].wcet_s *= 1e-3;
        expect(caught(judge(fixture), "simulated time exceeds WCET"),
               "a version whose WCET is shrunk below a simulated run "
               "counts as a failed operation");
    }
    {
        auto fixture = make_fixture(true, dir);
        auto report = *fixture.round.first.front();
        // Altered between the server and the client: a consistent but
        // different certificate (every proof still verifies).
        report.certificate.platform += "-forged";
        receive(fixture, report);
        expect(caught(judge(fixture), "differs from an in-process engine"),
               "a report altered in flight counts as a failed operation");
    }
    {
        auto fixture = make_fixture(false, dir);
        // A warm restart that lost its store recomputes everything.
        fs::remove_all(empty);
        fs::create_directories(empty);
        Recorder recorder(false);
        fixture.round.warm.front() =
            run_warm_restart(*fixture.workload, empty, fixture.round, recorder);
        expect(caught(judge(fixture), "warm restart recomputed"),
               "a warm restart that recomputes counts as a failed operation");
    }
    fs::remove_all(dir);
    fs::remove_all(empty);
    std::printf("%d test(s) failed\n", failures);
    return failures == 0 ? 0 : 1;
}
