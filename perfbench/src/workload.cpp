#include "workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "csl/csl.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace teamplay;
using Objective = coordination::Scheduler::Objective;

namespace {

// Input sizes of each workload.  They are fixed so every seed asks for the
// same amount of work; the seed picks the compiler and scheduler seeds, the
// variants and the submission order.
constexpr int kCompilerSeedsPerApp = 8;        // predictable_sweep
constexpr int kBothObjectives = 5;             // of those, asked twice
constexpr int kProfileRuns = 8;                // fabric_service
constexpr std::size_t kFabricAsksPerApp = 30;  // fabric_service, per pass

// Generated programs come from fixed generator seeds, the same for every
// --seed, with default options.  The compiler's loop passes change the
// results of some generated programs, so those scenarios fail the execution
// check; a fixed set fails the same operations in every round of every run,
// where a set drawn from --seed would fail on some seeds and not others.
// The predictable set starts with the two seeds on which the fault was
// first seen; the fabric set draws its boards from all six.
constexpr std::uint64_t kFirstFaultSeeds[] = {0x3cd17d5aaaf25aa9ULL,
                                              0xf29cc6b4ae068f94ULL};
constexpr std::uint64_t kPredictableGenerated = 14;  // seeds 1..14
constexpr std::uint64_t kFabricGenerated = 16;       // seeds 1..16

const char* objective_name(Objective objective) {
    return objective == Objective::kEnergy ? "energy" : "makespan";
}

void shuffle(std::vector<std::size_t>& order, support::Rng& rng) {
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
}

usecases::UseCaseApp& own(Workload& workload, usecases::UseCaseApp app) {
    workload.apps.push_back(
        std::make_unique<usecases::UseCaseApp>(std::move(app)));
    return *workload.apps.back();
}

const fuzz::GeneratedScenario& own(Workload& workload,
                                   fuzz::GeneratedScenario scenario) {
    workload.generated.push_back(
        std::make_unique<fuzz::GeneratedScenario>(std::move(scenario)));
    return *workload.generated.back();
}

ir::Word sensor_seed(std::uint64_t seed) {
    return static_cast<ir::Word>(seed % 65521);
}

/// The sensor inputs each predictable use case reads from memory.
std::function<void(sim::Machine&, std::uint64_t)> input_stager(
    const std::string& app_name) {
    if (app_name == "camera_pill")
        return [](sim::Machine& machine, std::uint64_t seed) {
            machine.poke(usecases::pill::kState, sensor_seed(seed));
            usecases::stage_xtea_key(
                machine, {static_cast<ir::Word>(seed & 0xFFFF),
                          static_cast<ir::Word>((seed >> 16) & 0xFFFF),
                          static_cast<ir::Word>((seed >> 32) & 0xFFFF),
                          static_cast<ir::Word>((seed >> 48) & 0xFFFF)});
        };
    if (app_name == "spacewire_downlink")
        return [](sim::Machine& machine, std::uint64_t seed) {
            machine.poke(usecases::space::kState, sensor_seed(seed));
        };
    if (app_name == "parking_cnn")
        return [](sim::Machine& machine, std::uint64_t seed) {
            machine.poke(usecases::parking::kState, sensor_seed(seed));
            usecases::stage_parking_weights(machine, seed);
        };
    return {};
}

Scenario from_app(const usecases::UseCaseApp& app, const std::string& label) {
    Scenario scenario;
    scenario.label = label;
    scenario.program = &app.program;
    scenario.platform = &app.platform;
    scenario.csl_source = app.csl_source;
    scenario.stage_inputs = input_stager(app.name);
    return scenario;
}

/// Add the scenario of each generator seed to the workload's distinct
/// scenarios; returns their indices.
std::vector<std::size_t> add_generated(Workload& workload,
                                       const fuzz::GeneratorConfig& config,
                                       const std::vector<std::uint64_t>& seeds) {
    const fuzz::ProgramGenerator generator(config);
    std::vector<std::size_t> added;
    for (const std::uint64_t seed : seeds) {
        const auto& generated = own(workload, generator.scenario(seed));
        Scenario scenario;
        scenario.label = generated.name;
        scenario.program = &generated.program;
        scenario.platform = &generated.platform;
        scenario.csl_source = generated.csl_source;
        scenario.options.profile_runs = kProfileRuns;
        scenario.generated = true;
        added.push_back(workload.distinct.size());
        workload.distinct.push_back(std::move(scenario));
    }
    return added;
}

std::vector<std::uint64_t> first_seeds(std::uint64_t count) {
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t seed = 1; seed <= count; ++seed) seeds.push_back(seed);
    return seeds;
}

// -- predictable_sweep -------------------------------------------------------
//
// The Fig. 1 flow: the camera pill, the SpaceWire downlink and the parking
// CNN on the Nucleo, each over seeded compiler seeds; most are asked again
// with the other scheduler objective, which reuses the cached fronts, plus
// generated programs on predictable boards, which spread the program size.
void build_predictable(Workload& workload, support::Rng& rng) {
    const std::vector<usecases::UseCaseApp*> apps = {
        &own(workload, usecases::make_camera_pill_app()),
        &own(workload, usecases::make_space_app()),
        &own(workload, usecases::make_parking_app(/*on_m0=*/true))};
    for (const auto* app : apps) {
        for (int k = 0; k < kCompilerSeedsPerApp; ++k) {
            const std::uint64_t compiler_seed = rng.below(1u << 20);
            const std::uint64_t scheduler_seed = 1 + rng.below(1u << 20);
            const auto objectives =
                k < kBothObjectives
                    ? std::vector<Objective>{Objective::kEnergy,
                                             Objective::kMakespan}
                    : std::vector<Objective>{Objective::kEnergy};
            for (const auto objective : objectives) {
                Scenario scenario = from_app(
                    *app, app->name + "/c" + std::to_string(compiler_seed) +
                              "/" + objective_name(objective));
                scenario.options.compiler.seed = compiler_seed;
                scenario.options.scheduler.objective = objective;
                scenario.options.scheduler.seed = scheduler_seed;
                scenario.input_seed = rng.next();
                workload.distinct.push_back(std::move(scenario));
            }
        }
    }
    fuzz::GeneratorConfig predictable_boards;
    predictable_boards.allow_complex_platforms = false;
    std::vector<std::uint64_t> seeds(std::begin(kFirstFaultSeeds),
                                     std::end(kFirstFaultSeeds));
    for (const std::uint64_t seed : first_seeds(kPredictableGenerated))
        seeds.push_back(seed);
    (void)add_generated(workload, predictable_boards, seeds);
}

// -- fabric_service ----------------------------------------------------------
//
// A closed loop of one client over loopback TCP: the five use cases asked
// again and again, each in eight scheduler variants (objective x seed x
// annealing budget) and with interactive or batch priority, with fresh
// generated scenarios interleaved.  Every seed asks each app and each
// variant equally often, so the mix — and with it the service's work —
// is the same for every seed; the seed draws the scheduler seeds, the
// priorities and the order.
void build_fabric(Workload& workload, support::Rng& rng) {
    const std::vector<usecases::UseCaseApp*> apps = {
        &own(workload, usecases::make_camera_pill_app()),
        &own(workload, usecases::make_space_app()),
        &own(workload, usecases::make_parking_app(/*on_m0=*/true)),
        &own(workload, usecases::make_uav_app("apalis-tk1")),
        &own(workload, usecases::make_rover_app("apalis-tk1"))};
    std::vector<std::size_t> asks;
    for (const auto* app : apps) {
        const std::size_t first = workload.distinct.size();
        const std::uint64_t seeds[2] = {1 + rng.below(1u << 20),
                                        1 + rng.below(1u << 20)};
        for (const auto objective : {Objective::kEnergy, Objective::kMakespan})
            for (const std::uint64_t seed : seeds)
                for (const int anneal : {100, 400}) {
                    Scenario scenario = from_app(
                        *app, app->name + "/" + objective_name(objective) +
                                  "/s" + std::to_string(seed) + "/a" +
                                  std::to_string(anneal));
                    scenario.options.scheduler.objective = objective;
                    scenario.options.scheduler.seed = seed;
                    scenario.options.scheduler.anneal_iterations = anneal;
                    scenario.options.profile_runs = kProfileRuns;
                    scenario.input_seed = rng.next();
                    workload.distinct.push_back(std::move(scenario));
                }
        const std::size_t variants = workload.distinct.size() - first;
        for (std::size_t k = 0; k < kFabricAsksPerApp; ++k)
            asks.push_back(first + k % variants);
    }
    for (const std::size_t k :
         add_generated(workload, {}, first_seeds(kFabricGenerated)))
        asks.push_back(k);
    shuffle(asks, rng);
    for (const std::size_t k : asks)
        workload.stream.push_back({k, rng.below(2) == 0
                                          ? core::Priority::kInteractive
                                          : core::Priority::kBatch});
}

}  // namespace

core::ScenarioRequest Scenario::request(core::Priority priority) const {
    core::ScenarioRequest request;
    request.program = program;
    request.platform = platform;
    request.csl_source = csl_source;
    request.options = options;
    request.label = label;
    request.priority = priority;
    return request;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
    auto workload = std::make_unique<Workload>();
    // Each workload draws from its own stream of the seed.
    std::uint64_t stream_id = 0xCBF29CE484222325ULL;
    for (const char c : name)
        stream_id = (stream_id ^ static_cast<unsigned char>(c)) *
                    0x100000001B3ULL;
    support::Rng rng(seed ^ stream_id);
    if (name == "predictable_sweep") {
        workload->block_seconds = 23.0;
        build_predictable(*workload, rng);
    } else if (name == "fabric_service") {
        workload->fabric = true;
        workload->rounds_per_block = 8;
        workload->block_seconds = 23.0;
        build_fabric(*workload, rng);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    if (workload->stream.empty()) {
        std::vector<std::size_t> order(workload->distinct.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        shuffle(order, rng);
        for (const std::size_t i : order) workload->stream.push_back({i});
    }
    return workload;
}

std::map<std::string, std::size_t> class_representatives(
    const platform::Platform& platform) {
    std::map<std::string, std::size_t> reps;
    for (std::size_t i = 0; i < platform.cores.size(); ++i)
        reps.try_emplace(platform.cores[i].core_class, i);
    return reps;
}

double effective_deadline(const Scenario& scenario, const csl::AppSpec& spec) {
    if (scenario.options.scheduler.deadline_s > 0.0)
        return scenario.options.scheduler.deadline_s;
    double deadline = spec.deadline_s;
    if (deadline <= 0.0)
        for (const auto& task : spec.tasks)
            deadline = std::max(deadline, task.deadline_s);
    return deadline;
}

}  // namespace perfbench
