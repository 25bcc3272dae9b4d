"""Snapshot feasibility lab: decide whether a diffusion snapshot can be
produced by a small seed set under threshold best-response dynamics, with
replayable certificates, structural-property verification, clique
preprocessing, and reduction gadgets."""

from .model import (
    ALL_MODES,
    Certificate,
    DynamicsMode,
    Graph,
    InvalidInstanceError,
    MONOTONE_SEQUENTIAL,
    MONOTONE_SIMULTANEOUS,
    Move,
    PLAIN_SEQUENTIAL,
    PLAIN_SIMULTANEOUS,
    SequentialWitness,
    SimultaneousWitness,
    SnapshotInstance,
    Trace,
    closed_neighborhood,
    induced_subgraph,
    validate_instance,
)
from .dynamics import (
    RunResult,
    Termination,
    apply_ordering,
    best_response,
    legal_moves,
    run_simultaneous,
)
from .solvers import (
    SearchCapExceeded,
    SearchLimits,
    SolveOutcome,
    monotone_closure,
    reachable_configs,
    seed_feasible,
    solve,
)
from .cliques import (
    CliqueAnalysis,
    NotACliqueError,
    RuleReport,
    assert_clique,
    clique_analysis,
)
from .reductions import (
    EquivalenceVerdict,
    TargetSetInstance,
    check_equivalence,
    embed_target_set,
    gadget_deactivation_robust,
    gadget_sequential_k1,
    has_target_set,
)
from .generator import GeneratorParams, instance_stream
from .verification import (
    CHECK_IDS,
    CorpusReport,
    LemmaVerdict,
    check_certificate,
    check_lemma,
    feasible_snapshots,
    replay_corpus,
    seed_distance,
)

__version__ = "0.1.0"
