//! The declarative rule table and allowlists.
//!
//! Every NEOFog-specific invariant the lint pass enforces is listed
//! here with a stable rule ID, the scope it applies to, and a
//! rationale. The families:
//!
//! | family        | rules                         | phase                 |
//! |---------------|-------------------------------|-----------------------|
//! | `NF-UNIT`     | 001                           | pass 1 (per-file)     |
//! | `NF-DET`      | 001–003 per-file, 004 closure | pass 1 + pass 3       |
//! | `NF-PANIC`    | 001–003                       | pass 1 (per-file)     |
//! | `NF-LEDGER`   | 001                           | pass 1 (per-file)     |
//! | `NF-REACH`    | 001                           | pass 3 (call graph)   |
//! | `NF-NV`       | 001                           | pass 3 (call graph)   |
//! | `NF-ALLOC`    | 001 construction, 002 growth  | pass 3 (call graph)   |
//! | `NF-PAR`      | 001 int. mut., 002 unordered  | pass 3 (call graph)   |
//!
//! The per-file rules run in pass 1 on each file's token stream;
//! pass 2 links the item models into the
//! whole-workspace call graph built by [`crate::graph`]; the graph
//! rules run in pass 3 over it ([`crate::reach`] and
//! [`crate::dataflow`]) and print the offending call chain in their
//! diagnostics. Exemptions live in the allowlists below — never inline
//! in the engine — so a reviewer can audit the complete policy in one
//! file, and the engine warns about any entry that no longer waives a
//! real site. Individual sites can also be waived in source with
//!
//! ```text
//! // neofog-lint: allow(NF-XXX-NNN) one-line justification
//! ```
//!
//! on the offending line or the line directly above it. Pre-existing
//! findings of the graph rules are recorded in `lint-baseline.json` at
//! the workspace root (regenerate with `cargo xtask lint
//! --update-baseline`); anything not in the baseline fails the run.
//! `cargo xtask lint --explain NF-XXX-NNN` prints one rule's entry.

/// Which files a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// All first-party library code (`crates/*/src`, root `src/`),
    /// excluding tests, benches, examples and `src/bin` binaries.
    Library,
    /// Library code of the deterministic simulation crates only:
    /// `core`, `energy`, `net`, `nvp`, `rf`.
    SimCrates,
    /// A single file, named by workspace-relative path.
    File(&'static str),
    /// A set of files matched by a workspace-relative glob pattern.
    /// `*` matches any run of characters except `/`, so
    /// `crates/core/src/sim/*.rs` covers the phase-pipeline modules
    /// without reaching into nested directories.
    Glob(&'static str),
}

/// One lint rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier, e.g. `NF-DET-002`.
    pub id: &'static str,
    /// One-line summary shown with every diagnostic.
    pub summary: &'static str,
    /// Why the invariant matters for the NEOFog reproduction.
    pub rationale: &'static str,
    /// Where the rule applies.
    pub scope: Scope,
}

/// The complete rule table.
pub const RULES: &[Rule] = &[
    Rule {
        id: "NF-UNIT-001",
        summary: "raw f64 used for a dimensioned quantity",
        rationale: "energy/power/time/charge values must use the typed units in \
                    crates/types/src/units.rs; a bare f64 silently mixes joules \
                    with nanojoules and watts with milliwatts",
        scope: Scope::Library,
    },
    Rule {
        id: "NF-DET-001",
        summary: "wall-clock time source in simulation code",
        rationale: "Instant/SystemTime make runs irreproducible; simulated time \
                    advances only through slot arithmetic",
        scope: Scope::SimCrates,
    },
    Rule {
        id: "NF-DET-002",
        summary: "hash-ordered collection in simulation code",
        rationale: "HashMap/HashSet iteration order varies across runs and \
                    platforms; use BTreeMap/BTreeSet so identical seeds give \
                    identical results",
        scope: Scope::SimCrates,
    },
    Rule {
        id: "NF-DET-003",
        summary: "non-SimRng randomness in simulation code",
        rationale: "all stochastic behaviour must flow from the seeded, \
                    forkable neofog_types::SimRng so a (seed, config) pair \
                    fully determines a run",
        scope: Scope::SimCrates,
    },
    Rule {
        id: "NF-PANIC-001",
        summary: "unwrap()/expect() in library code",
        rationale: "library code returns neofog_types::Result; panics in a \
                    long fleet sweep abort thousands of sibling simulations",
        scope: Scope::Library,
    },
    Rule {
        id: "NF-PANIC-002",
        summary: "panic!/unreachable!/todo!/unimplemented! in library code",
        rationale: "same as NF-PANIC-001; assert!/debug_assert! remain allowed \
                    for internal invariants",
        scope: Scope::Library,
    },
    Rule {
        id: "NF-PANIC-003",
        summary: "slice indexing in library code",
        rationale: "out-of-bounds indexing panics; prefer get()/iterators \
                    except in allowlisted numeric kernels whose indices are \
                    loop-bound-derived",
        scope: Scope::Library,
    },
    Rule {
        id: "NF-DET-004",
        summary: "non-sim helper reachable from simulation code is nondeterministic",
        rationale: "the determinism closure: NF-DET-001/002/003 cover the sim \
                    crates directly, but a sim-crate function calling a helper \
                    in types/workloads/sensors that reads a wall clock or \
                    iterates a hash map is just as irreproducible; the call \
                    graph extends the ban transitively and the diagnostic \
                    prints the offending chain",
        scope: Scope::Library,
    },
    Rule {
        id: "NF-REACH-001",
        summary: "panic site transitively reachable from the slot loop",
        rationale: "a fleet sweep runs thousands of simulations through the \
                    phase functions in crates/core/src/sim/*.rs; any \
                    unwrap/expect/panic!/indexing in a function the slot loop \
                    can reach — at any call depth — aborts them all, so the \
                    per-call-site NF-PANIC waivers are not enough on the hot \
                    path; the diagnostic prints the call chain from the phase \
                    function to the site",
        scope: Scope::Library,
    },
    Rule {
        id: "NF-NV-001",
        summary: "NV-state field written outside commit/ledger discipline",
        rationale: "NEOFog's correctness across power failure (§3) rests on \
                    nonvolatile state (NvBuffer, NvRf, RfConfig) changing only \
                    under the commit discipline: methods of the NV type itself \
                    or commit/checkpoint/restore/ledger-phase functions; a \
                    stray field write reachable from an undisciplined entry \
                    point could tear NVP/NVRF state mid-power-cycle",
        scope: Scope::Library,
    },
    Rule {
        id: "NF-ALLOC-001",
        summary: "allocating construction reachable from the slot loop",
        rationale: "the steady-state slot loop is allocation-free (enforced \
                    dynamically by the counting-allocator test); a heap \
                    construction site — Box::new/Arc::new, vec!/format!, \
                    collect()/to_vec()/to_owned()/to_string()/clone() — \
                    reachable from a phase function regresses the hot path \
                    the moment a code path exercises it, so the static twin \
                    flags it at review time with the call chain printed",
        scope: Scope::Library,
    },
    Rule {
        id: "NF-ALLOC-002",
        summary: "container growth reachable from the slot loop",
        rationale: "push/extend/insert/resize and friends reallocate unless \
                    the container was pre-sized; the slot loop's scratch \
                    vectors are reserved once and refilled in place, so any \
                    growth call a phase function can reach is either bounded \
                    by a reserve (audited waiver) or a latent per-slot \
                    allocation the counting allocator would only catch on \
                    the path a test happens to drive",
        scope: Scope::Library,
    },
    Rule {
        id: "NF-PAR-001",
        summary: "interior mutability reachable from the parallel runner",
        rationale: "the work-stealing pool guarantees parallel == serial \
                    results; Mutex/RwLock/RefCell/Cell (or a static mut) \
                    reachable from a worker body or a Reduce::map/fold \
                    impl is shared state whose observation order depends \
                    on thread scheduling — the one thing the golden tests \
                    cannot sweep over every interleaving",
        scope: Scope::Library,
    },
    Rule {
        id: "NF-PAR-002",
        summary: "unordered iteration source reachable from the parallel runner",
        rationale: "HashMap/HashSet iteration order varies run to run; a \
                    reducer folding over one produces aggregates that differ \
                    between worker counts even when every per-job result is \
                    bit-identical, silently breaking the parallel == serial \
                    guarantee the runner's re-sequencing exists to uphold",
        scope: Scope::Library,
    },
    Rule {
        id: "NF-LEDGER-001",
        summary: "energy debit/credit bypasses the conservation ledger",
        rationale: "every charge/discharge/leak/spend in the slot loop must be \
                    booked in the EnergyLedger so every build can assert \
                    per-slot conservation (harvested = consumed + stored + \
                    leaked + lost)",
        scope: Scope::Glob("crates/core/src/sim/*.rs"),
    },
];

/// A per-file exemption from one rule.
#[derive(Debug, Clone, Copy)]
pub struct FileAllow {
    /// Rule being waived.
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes). May use `*` with
    /// the same semantics as [`Scope::Glob`]; a path without `*`
    /// matches exactly.
    pub path: &'static str,
    /// Why the exemption is sound.
    pub reason: &'static str,
}

/// Files exempted from specific rules.
///
/// The bulk of the entries waive NF-PANIC-003 for numeric kernels: DSP
/// and dynamic-programming code whose indices are derived from loop
/// bounds over lengths it allocated itself, where `get()` chains would
/// obscure the mathematics without removing any real panic.
pub const FILE_ALLOWS: &[FileAllow] = &[
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/workloads/src/volumetric.rs",
        reason: "voxel-grid kernel; indices bounded by the grid dimensions it allocates",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/workloads/src/compress.rs",
        reason: "RLE/delta codec; window indices bounded by input length",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/workloads/src/dct.rs",
        reason: "8x8 DCT kernel; fixed-size block indices",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/workloads/src/fft.rs",
        reason: "radix-2 FFT butterflies; indices bounded by the power-of-two length",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/workloads/src/strength.rs",
        reason: "structural-model kernel; stencil indices bounded by the mesh size",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/workloads/src/uvdose.rs",
        reason: "dose-integration kernel over self-allocated series",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/workloads/src/noise.rs",
        reason: "spectral-band kernel over self-allocated series",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/workloads/src/pattern.rs",
        reason: "sliding-window matcher; window bounded by input length",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/core/src/balance/dp.rs",
        reason: "DP table kernel; indices bounded by the table dimensions it allocates",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/core/src/balance/distributed.rs",
        reason: "Algorithm-1 region scan; indices bounded by chain length",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/core/src/balance/tree.rs",
        reason: "up-down tree passes; indices bounded by chain length",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/core/src/sim/*.rs",
        reason: "phase functions loop over per-node vectors all sized to the node count",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/core/src/experiment.rs",
        reason: "figure tables indexed by the system/profile grid it builds",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/core/src/fleet.rs",
        reason: "percentile access into a vector it sorted and sized",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/core/src/nvd4q.rs",
        reason: "clone-group tables sized to the multiplex factor",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/core/src/report.rs",
        reason: "column-width table sized to the header row",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/types/src/rng.rs",
        reason: "xoshiro state array of fixed size 4; Fisher-Yates swap bounded by len",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/energy/src/trace.rs",
        reason: "trace resampling bounded by the sample count it allocates",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/nvp/src/spendthrift.rs",
        reason: "frequency-level table of fixed paper-given size",
    },
    FileAllow {
        rule: "NF-PANIC-003",
        path: "crates/xtask/src/engine.rs",
        reason: "token-window scans bounded by the token vector length",
    },
];

/// A per-identifier exemption from one rule.
#[derive(Debug, Clone, Copy)]
pub struct IdentAllow {
    /// Rule being waived.
    pub rule: &'static str,
    /// The exact field/parameter name.
    pub ident: &'static str,
    /// Why the name is not actually dimensioned.
    pub reason: &'static str,
}

/// Identifiers that look dimensioned but are genuinely dimensionless.
pub const IDENT_ALLOWS: &[IdentAllow] = &[
    IdentAllow {
        rule: "NF-UNIT-001",
        ident: "initial_charge",
        reason: "fraction of capacitor capacity in [0, 1], not coulombs",
    },
    IdentAllow {
        rule: "NF-UNIT-001",
        ident: "energy_index",
        reason: "dimensionless structural-strength index from the workload model",
    },
];

/// Name fragments that mark an `f64` as carrying a physical dimension.
pub const DIMENSIONED_MARKERS: &[&str] = &[
    "energy", "power", "joule", "watt", "volt", "ampere", "coulomb", "charge", "latency",
    "duration", "elapsed", "timeout", "deadline", "airtime",
];

/// Suffixes that mark an `f64` as carrying an explicit unit.
pub const DIMENSIONED_SUFFIXES: &[&str] = &[
    "_nj", "_uj", "_mj", "_j", "_nw", "_uw", "_mw", "_w", "_us", "_ms", "_ns", "_secs", "_seconds",
    "_micros", "_millis", "_nanos",
];

/// Name fragments that mark a value as a dimensionless ratio, so a
/// dimensioned marker inside the same name does not fire the rule
/// (`charge_efficiency`, `energy_saved_ratio`, ...).
pub const DIMENSIONLESS_MARKERS: &[&str] = &[
    "efficiency",
    "_eff",
    "eff_",
    "ratio",
    "fraction",
    "factor",
    "scale",
    "share",
    "prob",
    "chance",
    "weight",
    "score",
    "norm",
    "gain",
    "loss",
];

/// Identifiers banned by NF-DET-001 (wall-clock time).
pub const BANNED_TIME_IDENTS: &[&str] = &["Instant", "SystemTime"];

/// Identifiers banned by NF-DET-002 (hash-ordered collections).
pub const BANNED_HASH_IDENTS: &[&str] = &["HashMap", "HashSet"];

/// Identifiers banned by NF-DET-003 (foreign randomness).
pub const BANNED_RNG_IDENTS: &[&str] = &[
    "rand",
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "OsRng",
    "StdRng",
    "SmallRng",
    "getrandom",
];

/// Macro names banned by NF-PANIC-002.
pub const BANNED_PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Method names banned by NF-PANIC-001.
pub const BANNED_PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Methods in the `crates/core/src/sim/` phase modules that move
/// energy and must be booked in the `EnergyLedger` (a `ledger`
/// identifier within two lines of the call).
pub const LEDGER_METHODS: &[&str] = &[
    "charge",
    "charge_with_priority",
    "discharge_up_to",
    "try_discharge",
    "leak",
    "spend",
];

/// Files whose functions are the NF-REACH-001 entry points: the slot
/// loop's phase modules.
pub const REACH_ENTRY_GLOB: &str = "crates/core/src/sim/*.rs";

/// Files whose functions are the NF-ALLOC entry points: the six
/// per-slot phase modules, plus the offload balancer the balance
/// phase calls into every slot (the routing sweep itself lives in
/// `sim/transmit.rs` and is already covered). Deliberately narrower
/// than [`REACH_ENTRY_GLOB`] — `sim/mod.rs` (setup: `Simulator::new`
/// legitimately allocates every long-lived vector) and `sim/ctx.rs`
/// (the warmed scratch constructor) are excluded, mirroring the
/// warm-up window the counting-allocator test skips.
pub const ALLOC_ENTRY_FILES: &[&str] = &[
    "crates/core/src/sim/harvest.rs",
    "crates/core/src/sim/wake.rs",
    "crates/core/src/sim/balance.rs",
    "crates/core/src/sim/compute.rs",
    "crates/core/src/sim/transmit.rs",
    "crates/core/src/sim/slot_end.rs",
    "crates/core/src/balance/offload.rs",
];

/// Types whose associated constructors are heap-allocation sites for
/// NF-ALLOC-001 (`Vec::new` itself is lazily empty, but a fresh `Vec`
/// on the hot path exists to be grown).
pub const ALLOC_CTOR_TYPES: &[&str] = &[
    "Vec", "String", "VecDeque", "BTreeMap", "BTreeSet", "Box", "Rc", "Arc",
];

/// Associated-function names that, on an [`ALLOC_CTOR_TYPES`] type,
/// construct a heap value (NF-ALLOC-001).
pub const ALLOC_CTOR_FNS: &[&str] = &["new", "with_capacity", "from"];

/// Macros that allocate their result (NF-ALLOC-001).
pub const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Method calls that produce a freshly allocated value (NF-ALLOC-001).
/// `.clone()` is included pessimistically — the lexer cannot see the
/// receiver type, so cheap `Copy`-struct clones need a per-site waiver.
pub const ALLOC_ADAPTER_METHODS: &[&str] = &["collect", "to_vec", "to_owned", "to_string", "clone"];

/// Method calls that grow a container in place and may reallocate
/// (NF-ALLOC-002). Sites against pre-reserved scratch get audited
/// waivers; everything else is a latent per-slot allocation.
pub const ALLOC_GROWTH_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "extend",
    "extend_from_slice",
    "append",
    "insert",
    "resize",
    "reserve",
];

/// Files whose functions are the NF-PAR entry points: the
/// work-stealing runner. Worker closures, the coordinator and every
/// `Reduce::map`/`fold` impl the pool dispatches into are reached from
/// here through the call graph.
pub const PAR_ENTRY_GLOB: &str = "crates/core/src/runner/*.rs";

/// Interior-mutability types banned on runner-reachable paths by
/// NF-PAR-001. Atomics are deliberately absent — the pool's own
/// claim counter and cancellation flag are atomics, and their
/// orderings are part of the reviewed runner design.
pub const PAR_INTERIOR_MUT_IDENTS: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyLock",
];

/// Structs whose fields are nonvolatile state under the NF-NV-001
/// write discipline. They must be declared in one of [`NV_CRATES`];
/// same-named structs elsewhere (e.g. the volatile `SoftwareRf`) are
/// not NV.
pub const NV_STATE_STRUCTS: &[&str] = &["NvBuffer", "NvRf", "RfConfig"];

/// Crates that may declare NV-state structs.
pub const NV_CRATES: &[&str] = &["nvp", "rf"];

/// Name fragments that mark a function as part of the sanctioned
/// commit discipline for NV writes (besides methods of the NV types
/// themselves).
pub const NV_COMMIT_MARKERS: &[&str] = &["commit", "checkpoint", "restore", "ledger"];

/// Crates excluded from the call graph: developer tooling that is
/// never linked into a simulator binary, so reachability through it
/// is meaningless (and its conservative method-name edges would only
/// add noise).
pub const TOOL_CRATES: &[&str] = &["xtask", "alloc-probe"];

/// Looks up a rule by ID.
#[must_use]
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Human-readable description of a scope, shared by `--explain` and
/// the SARIF `help` property.
#[must_use]
pub fn scope_text(scope: Scope) -> String {
    match scope {
        Scope::Library => "library code".to_string(),
        Scope::SimCrates => "sim crates (core, energy, net, nvp, rf)".to_string(),
        Scope::File(p) | Scope::Glob(p) => p.to_string(),
    }
}
