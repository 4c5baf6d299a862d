"""Statistical perf-regression checking against ledger history.

The question ``repro-cache perf check`` answers: *is the current run
slower than this configuration's history can explain?*  Wall-clock noise
on shared machines (CI runners especially) makes a naive "slower than
last time" check useless, so three defences stack:

* **min-of-k baseline** — the baseline is the *minimum* of the last ``k``
  historical wall times, not the mean: the minimum estimates the
  machine's true capability, discarding runs that were merely unlucky;
* **threshold ratio** — a regression requires ``current > threshold ×
  baseline`` (default 1.5×), so ordinary jitter never trips;
* **confidence gate** — with ≥ 2 historical runs, the current time must
  also exceed ``mean + z·s`` of the history at the configured confidence
  level (the :func:`repro.stats.z_value` machinery the sampling solver
  already uses), so a tight threshold on a noisy history still does not
  false-positive; an absolute floor (``min_seconds``) ignores
  micro-benchmarks whose whole runtime is timer noise.

Rows compare only within equal baseline keys
(:func:`repro.obs.ledger.row_key`): same label, program, cache geometry
and solver config.  A key with no history reports
``no-baseline`` and never fails the check.

Two severities serve CI: ratios above ``threshold`` are regressions;
ratios above ``hard_threshold`` (default: same) are *hard* regressions.
``perf check --warn-only`` exits non-zero only on hard ones — the
GitHub-runner mode (warn at 1.5×, hard-fail at 3×).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional

from repro.obs.ledger import by_key, read_ledger
from repro.stats import z_value

#: Default regression threshold: current must exceed 1.5× the baseline.
DEFAULT_THRESHOLD = 1.5

#: Default min-of-k window over the most recent history rows.
DEFAULT_BASELINE_K = 5

#: Absolute noise floor: differences under 5 ms never count.
DEFAULT_MIN_SECONDS = 0.005


@dataclass
class CheckResult:
    """Outcome of checking one current row against its history."""

    key: str
    label: str
    status: str  # "ok" | "regression" | "no-baseline" | "no-metric"
    current: Optional[float] = None
    baseline: Optional[float] = None
    ratio: Optional[float] = None
    history: int = 0
    hard: bool = False

    @property
    def regressed(self) -> bool:
        return self.status == "regression"

    def describe(self) -> str:
        """One human-readable report line."""
        if self.status == "no-baseline":
            return f"{self.label}: no baseline history (key {self.key})"
        if self.status == "no-metric":
            return f"{self.label}: row carries no wall time (key {self.key})"
        tag = "HARD REGRESSION" if self.hard else (
            "regression" if self.regressed else "ok"
        )
        return (
            f"{self.label}: {tag} — current {self.current:.4f}s vs "
            f"baseline {self.baseline:.4f}s "
            f"({self.ratio:.2f}x over {self.history} run(s))"
        )


def _wall_seconds(row: dict) -> Optional[float]:
    wall = row.get("wall_seconds")
    if wall is None:
        phases = row.get("phases") or {}
        wall = sum(phases.values()) if phases else None
    return wall


def check_rows(
    history: list[dict],
    current: list[dict],
    threshold: float = DEFAULT_THRESHOLD,
    hard_threshold: Optional[float] = None,
    confidence: float = 0.95,
    baseline_k: int = DEFAULT_BASELINE_K,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> list[CheckResult]:
    """Check each current row against the matching history rows.

    ``history`` and ``current`` are ledger rows; matching is by baseline
    key.  Returns one :class:`CheckResult` per current row, in order.
    """
    if hard_threshold is None:
        hard_threshold = threshold
    if hard_threshold < threshold:
        raise ValueError("hard_threshold must be >= threshold")
    groups = by_key(history)
    current_ids = {row.get("run_id") for row in current}
    results: list[CheckResult] = []
    for row in current:
        from repro.obs.ledger import row_key

        key = row_key(row)
        label = row.get("label", "?")
        wall = _wall_seconds(row)
        if wall is None:
            results.append(CheckResult(key, label, "no-metric"))
            continue
        past = [
            r
            for r in groups.get(key, [])
            if r.get("run_id") not in current_ids
        ]
        walls = [w for w in (_wall_seconds(r) for r in past) if w is not None]
        if not walls:
            results.append(
                CheckResult(key, label, "no-baseline", current=wall)
            )
            continue
        window = walls[-baseline_k:]
        baseline = min(window)
        ratio = wall / baseline if baseline > 0 else float("inf")

        regressed = ratio > threshold and (wall - baseline) > min_seconds
        if regressed and len(walls) >= 2:
            mean = statistics.fmean(walls)
            spread = statistics.stdev(walls)
            regressed = wall > mean + z_value(confidence) * spread
        results.append(
            CheckResult(
                key,
                label,
                "regression" if regressed else "ok",
                current=wall,
                baseline=baseline,
                ratio=ratio,
                history=len(window),
                hard=regressed and ratio >= hard_threshold,
            )
        )
    return results


def check_ledger(
    ledger_path: str,
    current_path: Optional[str] = None,
    **kwargs,
) -> list[CheckResult]:
    """Check a ledger file; the ``repro-cache perf check`` entry point.

    With ``current_path``, every row there is checked against the history
    in ``ledger_path`` (the CI shape: committed baseline vs throwaway
    run).  Without it, the *latest* row of each baseline key in
    ``ledger_path`` is checked against that key's earlier rows.
    """
    history = read_ledger(ledger_path)
    if current_path is not None:
        current = read_ledger(current_path)
    else:
        current = [rows[-1] for rows in by_key(history).values() if len(rows)]
    return check_rows(history, current, **kwargs)


def exit_code(results: list[CheckResult], warn_only: bool = False) -> int:
    """0 when the check passes; 1 on regression.

    ``warn_only`` downgrades ordinary regressions to warnings — only
    *hard* regressions (ratio ≥ ``hard_threshold``) still fail.
    """
    if warn_only:
        return 1 if any(r.hard for r in results) else 0
    return 1 if any(r.regressed for r in results) else 0
