/**
 * @file
 * Determinism audit harness.
 *
 * Runs the same (workload, policy, seed) configuration several times
 * in fresh System instances and byte-compares an exhaustive stats
 * dump across the runs. Any divergence — container iteration order
 * leaking into results, uninitialized memory, hidden global state —
 * shows up as a first-differing-line diff and a non-zero exit code.
 *
 * This is the gate any future parallelism work must keep green: the
 * simulator's contract is that identical inputs produce bit-identical
 * outputs.
 *
 * Usage:
 *   determinism_check [workload] [policy] [instructions] [warmup]
 *                     [seed] [runs] [faults(0|1)] [leveler]
 *   determinism_check --threads N [instructions] [warmup]
 *   determinism_check --golden <file|->
 *
 * The optional [leveler] argument (start-gap, security-refresh,
 * soft-wear, wolfram, none) selects the wear-leveling backend and
 * shrinks the memory to 64 MB so the table-based backends stay cheap;
 * the --threads sweep grid includes SoftWear and WoLFRaM entries of
 * its own.
 *
 * The --threads mode is the sweep-parallelism gate: it builds a
 * (workload x policy x seed) sweep grid — fault injection layered on
 * alternate entries so the fault RNG is contended too — runs it once
 * serially as the reference, then again across N worker threads via
 * runConfigs(configs, N), and byte-compares every report fingerprint.
 * Any cross-thread state leak (a shared RNG, an unsynchronized global
 * tally, allocator-order dependence) shows up as a diff between the
 * serial and threaded sweeps.
 *
 * The --golden mode pins behaviour across *builds*, not just across
 * runs of one build: it runs a fixed matrix (every generator under
 * Norm and BE-Mellow+SC+WQ, plus one fault-injection run, one SoftWear
 * run, one WoLFRaM run, one 4-channel run and one run per shipped
 * device config, each 500K instructions after a 50K warm-up) and
 * byte-compares the concatenated fingerprints against a committed
 * file (tests/golden/fingerprints.txt). With "-" as the file the
 * matrix is written to stdout instead, which is how the file is
 * regenerated:
 *
 *   determinism_check --golden - > tests/golden/fingerprints.txt
 *
 * Defaults exercise a representative configuration: the stream
 * workload under BE-Mellow+SC+WQ (eager queue, cancellation and Wear
 * Quota all active). With faults=1 an aggressive fault-injection
 * configuration is layered on top (tiny endurance, heavy variation,
 * transient verify failures) so the fault RNG draws, retries,
 * repairs, retirements and remap traffic are all covered by the
 * byte-identical same-seed audit.
 *
 * Every mode runs with the invariant checkers on (checks.enabled,
 * strict by default), so a run that breaks an invariant panics
 * instead of producing a fingerprint.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "config/device_config.hh"
#include "mellow/policy.hh"
#include "wear/wear_leveler.hh"
#include "sim/logging.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workload/workload.hh"

namespace
{

using namespace mellowsim;

/**
 * Exhaustive textual fingerprint of one run: the full SimReport plus
 * per-bank wear, busy-time and quota state dug out of the live
 * system. Everything that could diverge between runs is in here.
 */
std::string
fingerprint(System &sys, const SimReport &r)
{
    std::ostringstream out;
    out << reportFingerprint(r);

    MemorySystem &mem = sys.memory();
    for (unsigned c = 0; c < mem.numChannels(); ++c) {
        const MemoryController &ctrl = mem.channel(ChannelId(c));
        const WearTracker &wear = ctrl.wearTracker();
        for (unsigned b = 0; b < ctrl.numBanks(); ++b) {
            const BankWearStats &w = wear.bankStats(BankId(b));
            out << "ch" << c << ".bank" << b << ' ';
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", w.wearUnits);
            out << buf << ' ' << w.normalWrites << ' ' << w.slowWrites
                << ' ' << w.cancelledWrites << ' '
                << w.maintenanceWrites << ' '
                << ctrl.bank(BankId(b)).busyTracker().busyTicks() << '\n';
            if (const WearLeveler *lev = ctrl.issueLeveler(BankId(b))) {
                // Fold a prefix of the live permutation into the dump
                // so PAD/permutation state must replay exactly too.
                std::uint64_t h = 0;
                std::uint64_t n = std::min<std::uint64_t>(
                    lev->numBlocks(), 4096);
                for (std::uint64_t i = 0; i < n; ++i)
                    h = h * 1099511628211ull + lev->remap(i);
                out << "ch" << c << ".lev" << b << ' ' << lev->name()
                    << ' ' << h << '\n';
            }
        }
        if (const WearQuota *q = ctrl.wearQuota()) {
            for (unsigned b = 0; b < ctrl.numBanks(); ++b) {
                out << "ch" << c << ".quota" << b << ' ';
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.17g",
                              q->bankWear(BankId(b)));
                out << buf << ' ' << q->slowOnlyPeriods(BankId(b)) << '\n';
            }
        }
        if (const FaultModel *fm = ctrl.faultModel()) {
            for (unsigned b = 0; b < ctrl.numBanks(); ++b) {
                out << "ch" << c << ".fault" << b << ' '
                    << fm->sparesUsed(BankId(b)) << ' '
                    << fm->retriesForBank(BankId(b))
                    << '\n';
            }
            // The capacity trace is appended in event order, so its
            // exact sequence must replay too.
            for (const CapacitySample &cs : fm->capacityTrace()) {
                out << "ch" << c << ".trace "
                    << static_cast<std::uint64_t>(cs.tick) << ' '
                    << cs.retiredLines << ' ' << cs.deadLines << '\n';
            }
        }
    }
    return out.str();
}

/** Report the first line where two fingerprints diverge. */
void
reportFirstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    unsigned lineno = 0;
    for (;;) {
        bool ga = static_cast<bool>(std::getline(sa, la));
        bool gb = static_cast<bool>(std::getline(sb, lb));
        ++lineno;
        if (!ga && !gb)
            return;
        if (la != lb || ga != gb) {
            std::fprintf(stderr,
                         "first divergence at line %u:\n  run 1: %s\n"
                         "  run N: %s\n",
                         lineno, ga ? la.c_str() : "<end of dump>",
                         gb ? lb.c_str() : "<end of dump>");
            return;
        }
    }
}

/**
 * Aggressive fault-injection layer: near-instant endurance
 * exhaustion, a heavy weak-line tail, frequent verify failures, and
 * repair / spare pools small enough to exhaust, so every fault path
 * fires within a short run.
 */
void
layerFaults(SystemConfig &cfg)
{
    FaultConfig &f = cfg.memory.fault;
    f.enabled = true;
    f.enduranceScale = 5e-7;
    f.enduranceSigma = 1.0;
    f.transientFailProb = 0.02;
    f.maxRetries = 3;
    f.repairEntriesPerLine = 1;
    f.spareLinesPerBank = 8;
}

/**
 * Select a wear-leveling backend and shrink the memory to 64 MB: the
 * table-based zoo backends (SoftWear pages, WoLFRaM's explicit PAD)
 * cost per-line state, so the audit runs them on a small geometry —
 * which also makes the fault layer's retirements dense enough to
 * exercise the unified remap path.
 */
void
layerLeveler(SystemConfig &cfg, WearLevelerKind kind)
{
    cfg.memory.wearLeveler = kind;
    cfg.memory.geometry.capacityBytes = 64ull << 20;
    // Tiny caches, so dirty lines actually reach memory inside the
    // audit's short run: with the stock 2 MB LLC a 200k-instruction
    // run evicts nothing and the leveler would never see a write,
    // let alone swap, migrate or retire anything.
    cfg.hierarchy.l1.sizeBytes = 4 * 1024;
    cfg.hierarchy.l2.sizeBytes = 8 * 1024;
    cfg.hierarchy.llc.cache.sizeBytes = 16 * 1024;
    // Hair-trigger SoftWear knobs and near-zero endurance, so page
    // migrations, delegate retirements and spare exhaustion all fire
    // (and must replay) inside the 200k-instruction audit.
    cfg.memory.softWearSamplePeriod = 2;
    cfg.memory.softWearRelocThreshold = 4;
    cfg.memory.gapWritePeriod = 8;
    cfg.memory.fault.enduranceScale = 1e-9;
}

/**
 * Sweep-parallelism gate (--threads N): run a sweep grid serially,
 * then across N contended worker threads, and require byte-identical
 * report fingerprints slot by slot.
 */
int
runThreadsMode(unsigned jobs, std::uint64_t instructions,
               std::uint64_t warmup)
{
    // Sequential, random and pointer-chasing traffic across plain and
    // fully-featured policies; fault injection on alternate entries so
    // the per-system fault RNGs run under contention too.
    const char *workloads[] = {"stream", "gups", "mcf"};
    const char *policyNames[] = {"Norm", "BE-Mellow+SC+WQ"};

    std::vector<SystemConfig> configs;
    for (const char *w : workloads) {
        for (const char *p : policyNames) {
            SystemConfig cfg;
            cfg.workloadName = w;
            cfg.policy = policies::fromName(p);
            cfg.instructions = instructions;
            cfg.warmupInstructions = warmup;
            cfg.seed = configs.size() + 1;
            cfg.checks.enabled = true;
            if (configs.size() % 2 == 1)
                layerFaults(cfg);
            configs.push_back(std::move(cfg));
        }
    }
    // The zoo backends under fault injection: their permutation /
    // PAD state, migration traffic and delegate retirements must stay
    // byte-identical under worker-thread contention too.
    for (WearLevelerKind kind :
         {WearLevelerKind::SoftWear, WearLevelerKind::WoLFRaM}) {
        SystemConfig cfg;
        cfg.workloadName = "stream";
        cfg.policy = policies::fromName("BE-Mellow+SC+WQ");
        cfg.instructions = instructions;
        cfg.warmupInstructions = warmup;
        cfg.seed = configs.size() + 1;
        cfg.checks.enabled = true;
        layerFaults(cfg);
        layerLeveler(cfg, kind);
        configs.push_back(std::move(cfg));
    }

    std::vector<SimReport> serial = runConfigs(configs, 1);
    std::vector<SimReport> threaded = runConfigs(configs, jobs);

    bool ok = true;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        std::string a = reportFingerprint(serial[i]);
        std::string b = reportFingerprint(threaded[i]);
        if (a != b) {
            ok = false;
            std::fprintf(stderr,
                         "FAIL: grid entry %zu (%s / %s) diverged "
                         "between the serial reference and the "
                         "%u-thread sweep\n",
                         i, serial[i].workload.c_str(),
                         serial[i].policy.c_str(), jobs);
            reportFirstDiff(a, b);
        }
    }
    if (!ok)
        return 1;
    std::printf("OK: %zu-config sweep grid (%" PRIu64
                " instrs each) byte-identical between serial and "
                "%u-thread runs\n",
                configs.size(), instructions, jobs);
    return 0;
}

/**
 * Golden gate (--golden FILE): run the fixed matrix described in the
 * file comment and byte-compare its fingerprints against FILE, or
 * write them to stdout when FILE is "-".
 */
int
runGoldenMode(const std::string &path)
{
    auto base = [](const std::string &workload, const char *policy) {
        SystemConfig cfg;
        cfg.workloadName = workload;
        cfg.policy = policies::fromName(policy);
        cfg.instructions = 500'000;
        cfg.warmupInstructions = 50'000;
        cfg.checks.enabled = true;
        return cfg;
    };

    std::vector<std::pair<std::string, SystemConfig>> matrix;
    for (const std::string &w : workloadNames())
        for (const char *p : {"Norm", "BE-Mellow+SC+WQ"})
            matrix.emplace_back(w + " " + p, base(w, p));
    {
        SystemConfig cfg = base("stream", "BE-Mellow+SC+WQ");
        layerFaults(cfg);
        matrix.emplace_back("stream BE-Mellow+SC+WQ faults", cfg);
    }
    for (WearLevelerKind kind :
         {WearLevelerKind::SoftWear, WearLevelerKind::WoLFRaM}) {
        SystemConfig cfg = base("stream", "BE-Mellow+SC+WQ");
        layerFaults(cfg);
        layerLeveler(cfg, kind);
        matrix.emplace_back(std::string("stream BE-Mellow+SC+WQ faults ") +
                                wearLevelerKindName(kind),
                            cfg);
    }
    {
        // Random traffic with small caches, so write-backs reach every
        // channel and the interleave decode is pinned too.
        SystemConfig cfg = base("gups", "BE-Mellow+SC+WQ");
        cfg.numChannels = 4;
        cfg.memory.geometry.capacityBytes = 1ull << 30;
        cfg.hierarchy.l1.sizeBytes = 4 * 1024;
        cfg.hierarchy.l2.sizeBytes = 8 * 1024;
        cfg.hierarchy.llc.cache.sizeBytes = 16 * 1024;
        matrix.emplace_back("gups BE-Mellow+SC+WQ 4-channel", cfg);
    }
    // One run per shipped device file, bound the way makeConfig binds
    // a --device selection, so a datasheet or binder change shows up.
    for (const std::string &device : deviceConfigNames()) {
        SystemConfig cfg = base("stream", "BE-Mellow+SC+WQ");
        setDeviceOverride(device);
        applyDeviceSelection(cfg);
        matrix.emplace_back("stream BE-Mellow+SC+WQ device " + device, cfg);
    }
    setDeviceOverride("");

    std::string actual;
    for (const auto &[label, cfg] : matrix) {
        System sys(cfg);
        SimReport r = sys.run();
        actual += "== " + label + "\n" + fingerprint(sys, r);
    }

    if (path == "-") {
        std::fwrite(actual.data(), 1, actual.size(), stdout);
        return 0;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot read golden file %s\n",
                     path.c_str());
        return 2;
    }
    std::ostringstream golden;
    golden << in.rdbuf();
    if (golden.str() != actual) {
        std::fprintf(stderr,
                     "FAIL: fingerprints differ from %s; if the change "
                     "is intended, regenerate it with --golden - and "
                     "say why in CHANGES.md\n",
                     path.c_str());
        reportFirstDiff(golden.str(), actual);
        return 1;
    }
    std::printf("OK: %zu golden configurations byte-identical to %s\n",
                matrix.size(), path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mellowsim;

    if (argc > 1 && std::string(argv[1]) == "--golden") {
        if (argc != 3) {
            std::fprintf(stderr, "usage: %s --golden <file|->\n",
                         argv[0]);
            return 2;
        }
        Logger::setQuiet(true);
        return runGoldenMode(argv[2]);
    }

    if (argc > 1 && std::string(argv[1]) == "--threads") {
        if (argc < 3) {
            std::fprintf(stderr,
                         "usage: %s --threads N [instructions] "
                         "[warmup]\n", argv[0]);
            return 2;
        }
        unsigned jobs =
            static_cast<unsigned>(parseCount(argv[2], "threads"));
        // Long enough per config that the worker threads genuinely
        // overlap (contended allocator, shared stdio, ...) instead of
        // finishing one after another.
        std::uint64_t instructions =
            argc > 3 ? parseCount(argv[3], "instructions") : 1'000'000;
        std::uint64_t warmup =
            argc > 4 ? parseCount(argv[4], "warmup") : 50'000;
        if (jobs == 0 || instructions == 0) {
            std::fprintf(stderr,
                         "usage: %s --threads N>=1 [instructions>0] "
                         "[warmup]\n", argv[0]);
            return 2;
        }
        Logger::setQuiet(true);
        return runThreadsMode(jobs, instructions, warmup);
    }

    std::string workload = argc > 1 ? argv[1] : "stream";
    std::string policy = argc > 2 ? argv[2] : "BE-Mellow+SC+WQ";
    std::uint64_t instructions =
        argc > 3 ? parseCount(argv[3], "instructions") : 300'000;
    std::uint64_t warmup = argc > 4 ? parseCount(argv[4], "warmup") : 50'000;
    std::uint64_t seed = argc > 5 ? parseCount(argv[5], "seed") : 1;
    unsigned runs =
        argc > 6 ? static_cast<unsigned>(parseCount(argv[6], "runs")) : 2;
    bool faults = argc > 7 && parseCount(argv[7], "faults") != 0;
    bool has_leveler = false;
    WearLevelerKind leveler = WearLevelerKind::StartGap;
    if (argc > 8) {
        has_leveler = wearLevelerKindFromName(argv[8], &leveler);
        if (!has_leveler) {
            std::fprintf(stderr, "unknown leveler '%s'\n", argv[8]);
            return 2;
        }
    }
    if (instructions == 0 || runs < 2) {
        std::fprintf(stderr,
                     "usage: %s [workload] [policy] [instructions] "
                     "[warmup] [seed] [runs>=2] [faults(0|1)] "
                     "[leveler]\n",
                     argv[0]);
        return 2;
    }

    Logger::setQuiet(true);

    std::string reference;
    for (unsigned i = 0; i < runs; ++i) {
        SystemConfig cfg;
        cfg.workloadName = workload;
        cfg.policy = policies::fromName(policy);
        cfg.instructions = instructions;
        cfg.warmupInstructions = warmup;
        cfg.seed = seed;
        cfg.checks.enabled = true;
        if (faults)
            layerFaults(cfg);
        if (has_leveler)
            layerLeveler(cfg, leveler);

        System sys(cfg);
        SimReport r = sys.run();
        std::string dump = fingerprint(sys, r);

        if (i == 0) {
            reference = std::move(dump);
        } else if (dump != reference) {
            std::fprintf(stderr,
                         "FAIL: run %u of %s/%s (seed %" PRIu64
                         ") diverged from run 1\n",
                         i + 1, workload.c_str(), policy.c_str(),
                         seed);
            reportFirstDiff(reference, dump);
            return 1;
        }
    }

    std::printf("OK: %u runs of %s/%s (%" PRIu64
                " instrs, seed %" PRIu64
                ") produced byte-identical stats (%zu-byte dump)\n",
                runs, workload.c_str(), policy.c_str(), instructions,
                seed, reference.size());
    return 0;
}
