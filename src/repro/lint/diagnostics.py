"""Diagnostic model and the rule registry (id, summary, invariant)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Diagnostic", "RULES", "AST_RULES", "REGISTRY_RULES"]


# rule id -> (one-line summary, invariant it guards / failure it prevents)
RULES: dict[str, tuple[str, str]] = {
    "RNG001": (
        "seedless np.random.default_rng()",
        "Library code drawing OS entropy breaks bitwise reproducibility; "
        "thread an explicit seed/Generator (see circuit/sweep.py's "
        "SeedSequence-substream idiom).",
    ),
    "RNG002": (
        "entropy-seeded np.random.SeedSequence()",
        "SeedSequence() without arguments pulls OS entropy, so two runs of "
        "the same sweep disagree bitwise and cache keys stop meaning "
        "anything.",
    ),
    "RNG003": (
        "stdlib random module",
        "random.* uses hidden unseedable-per-call global state that worker "
        "processes inherit unpredictably; use numpy Generators spawned from "
        "a SeedSequence.",
    ),
    "RNG004": (
        "wall-clock read in library code",
        "time.time()/datetime.now() make results depend on when they ran, "
        "which poisons cache keys and golden files (perf_counter / "
        "monotonic for durations are fine).",
    ),
    "PRT001": (
        "mirror-symmetric model overrides currents()",
        "The source/drain mirror transform lives in exactly one place "
        "(FETModel.currents over the _forward_currents hook); a per-class "
        "currents override can drift from it for vds < 0.",
    ),
    "PRT002": (
        "linearize_point overridden",
        "The base linearize_point is the one-point call of linearize, so "
        "a scalar linearization is bitwise the batched one; an override "
        "is a second small-signal path that can drift from it.",
    ),
    "PRT003": (
        "non-mirror-symmetric device without explicit operating_box",
        "The default box tabulates only vds >= 0; an asymmetric device "
        "must declare a two-sided box or the surrogate compiler mirrors "
        "currents that are not mirror-symmetric.",
    ),
    "IOW001": (
        "direct file write bypassing the atomic-write helpers",
        "open(..., 'w')/Path.write_text under cache or checkpoint roots "
        "can be seen half-written by concurrent readers and leaves torn "
        "files after a crash; use mkstemp + os.replace (see "
        "repro.store.atomic_write_bytes / atomic_write_text).",
    ),
    "PKN001": (
        "sweep kernel is not a module-level function",
        "Kernels handed to SweepPlan/run_supervised cross a process-pool "
        "boundary: lambdas and nested functions do not pickle, and "
        "closures smuggle unfingerprinted state into workers.",
    ),
    "PKN002": (
        "sweep kernel uses global state",
        "A kernel mutating module globals gives different results "
        "depending on which worker ran which chunk; all kernel inputs "
        "must travel through (params, rng, payload).",
    ),
    "MRG001": (
        "vectorized SweepPlan without a merge-boundary validator",
        "Vectorized kernels return opaque blocks the engine splits and "
        "merges; without an entry validator a shape/dtype bug surfaces "
        "as corrupted statistics instead of a SweepExecutionError at the "
        "merge boundary (the _mc_entry_validator pattern).",
    ),
    "IMP001": (
        "module-level scipy import",
        "scipy costs a fresh process ~0.2 s to import, and the device "
        "physics never uses it; only sparse plans and dense AC pencils "
        "do, so scipy is imported inside the code that needs it (or "
        "bound on first access by a PEP 562 module __getattr__).",
    ),
    "LNT001": (
        "malformed repro-lint marker",
        "Allowlist markers must name known rules and carry a reason: "
        "# repro-lint: ok[RULE] -- why this is safe.",
    ),
    "LNT002": (
        "unused repro-lint marker",
        "A marker that suppresses nothing is stale documentation; remove "
        "it or move it to the line that needs it.",
    ),
}

# Rules produced by import-time registry introspection (vs pure AST).
REGISTRY_RULES = frozenset({"PRT001", "PRT002"})
AST_RULES = frozenset(RULES) - REGISTRY_RULES - {"LNT001", "LNT002"}


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: rule id, location, human-readable message."""

    file: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "message": self.message,
        }
