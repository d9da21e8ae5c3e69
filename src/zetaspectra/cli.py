"""Command-line pipeline: events -> indicator series -> spectrum -> analyses.

Every figure-worthy intermediate is emitted as CSV; a JSON manifest records
the emitted files, row counts, property-check verdicts and versions. Logs go
to stderr, data only to files. Exit status: 0 all checks pass, 1 a check
failed, 2 bad usage or input (one stderr line, reported before the output
directory is created).
"""

from __future__ import annotations

import argparse
import math
import platform
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (detect_peaks, fermat_spiral, frequency_ratio_series,
                       pnt_ratio, reciprocal_series, reconstruct)
from .emit import (write_manifest, write_peaks_csv, write_pnt_csv,
                   write_ratios_csv, write_recon_csv, write_series_csv,
                   write_spectrum_csv, write_spiral_csv)
from .grid import GridSpec, MangoldtSeries, build_series
from .numtheory import (DomainError, EventSequence, ZeroTableError,
                        find_zeros, load_zeros, sieve_primes, synthetic_train)
from . import spectral
from .spectral import (conjugate_symmetry_check, dft, idft, parseval_check,
                       periodicity_check)

EMIT_CHOICES = ("series", "spectrum", "spiral", "peaks", "recon", "ratios", "pnt")
SOURCES = ("zeros-computed", "zeros-file", "primes", "synthetic")
PNT_CHECKPOINTS = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
# the exact periodicity sum costs one lookup per bin, mark and shift (the
# base bins count as one shift); bins beyond this budget are skipped
PERIODICITY_TERM_BUDGET = 2 ** 25


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit status 2)."""


@dataclass
class RunConfig:
    """The run options and their defaults, the one list of either."""

    source: str = "zeros-computed"
    t_max: float | None = None  # see bound
    limit: int = 100
    gap: float = 10.0
    delta: float = 1.0
    length: int | None = None
    zero_file: str | None = None
    out_dir: str = "out"
    emit: tuple[str, ...] = EMIT_CHOICES
    k_terms: int | str = "all"
    threshold_fraction: float = 0.5
    z_values: tuple[int, ...] = (1, 2, 3)
    tol: float = 1e-9

    @property
    def bound(self) -> float:  # the upper ordinate where one is needed
        return 100.0 if self.t_max is None else self.t_max

    def validate(self) -> None:
        for name in ("t_max", "gap", "delta", "tol"):
            if not math.isfinite(getattr(self, name) or 0.0):
                raise ConfigError(f"{name.replace('_', '-')} must be finite")
        if self.source not in SOURCES:
            raise ConfigError(f"unknown source {self.source!r}")
        if self.source == "zeros-file" and not self.zero_file:
            raise ConfigError("source zeros-file requires --zero-file")
        if self.source != "zeros-file" and self.zero_file:
            raise ConfigError("--zero-file only applies to source zeros-file")
        if self.t_max is not None and self.t_max <= 0.0:
            raise ConfigError(f"t-max must be positive, got {self.t_max}")
        if self.limit < 2:
            raise ConfigError(f"limit must be >= 2, got {self.limit}")
        if self.gap <= 0.0:
            raise ConfigError(f"gap must be positive, got {self.gap}")
        if self.delta <= 0.0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.length is not None and self.length < 2:
            raise ConfigError(f"length must be >= 2, got {self.length}")
        unknown = set(self.emit) - set(EMIT_CHOICES)
        if unknown:
            raise ConfigError(f"unknown emit names: {sorted(unknown)}")
        if self.k_terms != "all":
            try:
                k = int(self.k_terms)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"k-terms must be an integer or 'all', got {self.k_terms!r}"
                ) from None
            if k < 1:
                raise ConfigError(f"k-terms must be >= 1, got {k}")
            self.k_terms = k
        if not 0.0 < self.threshold_fraction <= 1.0:
            raise ConfigError(
                f"threshold must be in (0, 1], got {self.threshold_fraction}")
        if any(z < 1 for z in self.z_values):
            raise ConfigError(f"z values must be >= 1, got {self.z_values}")
        if len(set(self.z_values)) < len(self.z_values):
            raise ConfigError(f"z values must not repeat, got {self.z_values}")
        if self.tol <= 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _build_events(config: RunConfig) -> tuple[EventSequence, str]:
    """The run's events and a one-line description of where they came from."""
    if config.source == "zeros-computed":
        return (find_zeros(0.0, config.bound),
                f"zeta zeros computed up to t = {config.bound}")
    if config.source == "zeros-file":
        try:
            events = load_zeros(config.zero_file)
        except OSError as exc:
            raise ConfigError(f"cannot read zero file: {exc}") from None
        what = f"zeros loaded from {config.zero_file}"
        if config.t_max is None:
            return events, what
        keep = events.events[events.events <= config.t_max]
        return EventSequence(keep), f"{what}, clipped at t = {config.t_max}"
    if config.source == "primes":
        return sieve_primes(config.limit), f"primes up to {config.limit}"
    top = (config.bound if config.length is None
           else (config.length - 1) * config.delta)
    return (synthetic_train(config.gap, top),
            f"synthetic impulse train, gap {config.gap}, up to {top}")


def _checks(series: MangoldtSeries, spectrum, config: RunConfig) -> list[dict]:
    n = series.grid.length
    per_bin = max(1, series.mark_count * (1 + len(config.z_values)))
    count = min(n, max(1, PERIODICITY_TERM_BUDGET // per_bin))
    if count == n:
        bins = None
    else:
        bins = np.unique(np.linspace(0, n - 1, count).astype(int))
        _log(f"periodicity check restricted to {bins.size} of {n} bins")
    checks = []
    for report in periodicity_check(series, list(config.z_values),
                                    tol=config.tol, bins=bins):
        checks.append({"name": f"periodicity_z{report.z}",
                       "pass": report.passed,
                       "max_error": report.max_abs_diff})
    sym = conjugate_symmetry_check(spectrum, tol=config.tol)
    checks.append({"name": "conjugate_symmetry", "pass": sym.passed,
                   "max_error": sym.max_asymmetry})
    par = parseval_check(series, spectrum, tol=config.tol)
    checks.append({"name": "parseval", "pass": par.passed,
                   "max_error": par.rel_error})
    return checks


def run(config: RunConfig) -> int:
    """Execute the pipeline; returns the process exit status."""
    config.validate()
    events, what = _build_events(config)
    if config.length is not None:
        grid = GridSpec(delta=config.delta, length=config.length)
    else:
        grid = GridSpec.for_events(events, delta=config.delta)
    if "ratios" in config.emit and grid.length < 3:
        raise ConfigError(f"ratios need at least 3 samples, the grid has "
                          f"{grid.length}")
    if "recon" in config.emit and config.k_terms != "all" \
            and config.k_terms > grid.length:
        raise ConfigError(f"k-terms {config.k_terms} exceeds the "
                          f"{grid.length} bins of the grid")
    if max(config.z_values, default=1) >= (2 ** 63 - 1) // grid.length:
        raise ConfigError(f"z values must stay below 2^63 / {grid.length} "
                          f"for int64 phases, got {max(config.z_values)}")
    _log(what)
    _log(f"{len(events)} events on a grid of {grid.length} samples "
         f"(delta {grid.delta})")
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}")

    series = build_series(events, grid)
    spectrum = dft(series)
    checks = _checks(series, spectrum, config)

    files = []

    def emitted(name: str, rows: int) -> None:
        files.append({"name": name, "rows": rows})
        _log(f"wrote {name} ({rows} rows)")

    if "series" in config.emit:
        emitted("series.csv", write_series_csv(out_dir / "series.csv", series))
    if "spectrum" in config.emit:
        emitted("spectrum.csv",
                write_spectrum_csv(out_dir / "spectrum.csv", spectrum))
    if "spiral" in config.emit:
        emitted("spiral.csv", write_spiral_csv(out_dir / "spiral.csv", spectrum,
                                               fermat_spiral(spectrum)))
    if "peaks" in config.emit:
        peaks = detect_peaks(spectrum, config.threshold_fraction)
        emitted("peaks.csv", write_peaks_csv(out_dir / "peaks.csv", peaks))
    if "recon" in config.emit:
        result = reconstruct(spectrum, config.k_terms, original=series.values)
        emitted("recon.csv",
                write_recon_csv(out_dir / "recon.csv", series, result))
    if "ratios" in config.emit:
        ratios = frequency_ratio_series(spectrum)
        recips = reciprocal_series(spectrum)
        emitted("ratios.csv",
                write_ratios_csv(out_dir / "ratios.csv", ratios, recips))
    if "pnt" in config.emit:
        primes = sieve_primes(max(PNT_CHECKPOINTS)).events
        counts = np.searchsorted(primes, PNT_CHECKPOINTS, side="right")
        checkpoints = [(x, int(c), pnt_ratio(x, int(c)))
                       for x, c in zip(PNT_CHECKPOINTS, counts)]
        emitted("pnt.csv", write_pnt_csv(out_dir / "pnt.csv", checkpoints))

    manifest = {
        "config_echo": dict(asdict(config), length=grid.length,
                            out_dir=str(out_dir)),
        "files": files,
        "checks": checks,
        "versions": {
            "zetaspectra": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    write_manifest(out_dir / "manifest.json", manifest)
    _log(f"wrote manifest.json ({len(files)} files, {len(checks)} checks)")

    failed = [c for c in checks if not c["pass"]]
    for c in failed:
        _log(f"CHECK FAILED: {c['name']} max_error {c['max_error']:.3e} "
             f"(tol {config.tol})")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------

def _selftest_fixtures() -> list[MangoldtSeries]:
    rng = np.random.default_rng(20240917)
    fixtures = []
    for n in (64, 97):
        values = np.zeros(n)
        values[rng.choice(n, size=n // 6, replace=False)] = 1.0
        fixtures.append(MangoldtSeries(values=values,
                                       grid=GridSpec(delta=1.0, length=n)))
    train = np.zeros(60)
    train[::6] = 1.0
    fixtures.append(MangoldtSeries(values=train,
                                   grid=GridSpec(delta=0.5, length=60)))
    return fixtures


SELFTEST_BOUNDS = {"round_trip": 1e-9, "periodicity": 1e-9, "symmetry": 1e-9,
                   "parseval": 1e-9, "spiral": 1e-12}
# the bin a corrupted spectrum-level suite perturbs by 1e-3
SELFTEST_FAULT_BIN = {"round_trip": 3, "symmetry": 2, "parseval": 4}


def _suite_error(suite: str, series: MangoldtSeries, corrupt: bool) -> float:
    spectrum = dft(series)
    if corrupt and suite in SELFTEST_FAULT_BIN:
        bins = spectrum.bins.copy()
        bins[SELFTEST_FAULT_BIN[suite]] += 1e-3
        spectrum = replace(spectrum, bins=bins)
    if suite == "round_trip":
        return float(np.max(np.abs(idft(spectrum) - series.values)))
    if suite == "periodicity":
        exact, n = spectral.direct_bins, series.grid.length
        if corrupt:
            # take each shifted sum at l + zN + 1, a shift that is not a
            # multiple of N, so the check itself must see the identity fail
            spectral.direct_bins = lambda values, indices: exact(
                values, indices + (indices >= n))
        try:
            reports = periodicity_check(series, [1, 2, 3])
        finally:
            spectral.direct_bins = exact
        return max(r.max_abs_diff for r in reports)
    if suite == "symmetry":
        return conjugate_symmetry_check(spectrum).max_asymmetry
    if suite == "parseval":
        return parseval_check(series, spectrum).rel_error
    x, y = fermat_spiral(spectrum)
    if corrupt:
        x[5] += 1e-3
    return float(np.max(np.abs(x ** 2 + y ** 2 - spectrum.frequencies ** 2)))


def selftest(corrupt: str | None = None) -> int:
    """Run the embedded invariant suites on built-in fixtures.

    ``corrupt`` injects a fault into the named suite's data so its detector
    must report a failure (used to verify the detectors themselves).
    """
    fixtures = _selftest_fixtures()
    failures = []
    for suite, bound in SELFTEST_BOUNDS.items():
        err = max(_suite_error(suite, s, suite == corrupt) for s in fixtures)
        ok = err < bound
        if not ok:
            failures.append(suite)
        print(f"{suite}: {'pass' if ok else 'FAIL'} (max error {err:.3e}, "
              f"bound {bound:.1e})")
    if failures:
        print(f"selftest FAILED: {', '.join(failures)}")
        return 1
    print("selftest passed")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _parse_emit(text: str) -> tuple[str, ...]:
    if text == "all":
        return EMIT_CHOICES
    if text == "none":
        return ()
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_z(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad z list: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaspectra",
        description="Indicator series over zeta zeros or primes, their DFT "
                    "spectra, spectral property checks, and harmonic "
                    "reconstruction.")
    sub = parser.add_subparsers(dest="command")

    # no defaults here: an option left out keeps RunConfig's
    d = RunConfig()
    runp = sub.add_parser("run", help="execute the pipeline and emit CSV data",
                          argument_default=argparse.SUPPRESS)
    runp.add_argument("--source", choices=SOURCES,
                      help=f"event sequence to analyse (default {d.source})")
    runp.add_argument("--t-max", type=float,
                      help="upper ordinate for computed zeros and synthetic "
                           f"trains (default {d.bound:g}); clips loaded zero "
                           "tables only when given")
    runp.add_argument("--limit", type=int, help="prime sieve bound for "
                      f"--source primes (default {d.limit})")
    runp.add_argument("--gap", type=float, help="event spacing for "
                      f"--source synthetic (default {d.gap:g})")
    runp.add_argument("--delta", type=float,
                      help=f"sampling period (default {d.delta:g})")
    runp.add_argument("--length", type=int,
                      help="sample count; default covers the largest event")
    runp.add_argument("--zero-file",
                      help="ordinate table for --source zeros-file")
    runp.add_argument("--out", dest="out_dir", metavar="OUT",
                      help=f"output directory (default {d.out_dir})")
    runp.add_argument("--emit", type=_parse_emit, metavar="LIST",
                      help="comma list from "
                           f"{{{','.join(EMIT_CHOICES)}}}, or all / none "
                           "(default all)")
    runp.add_argument("--k-terms", help="bins used in the reconstruction "
                      f"(default {d.k_terms})")
    runp.add_argument("--threshold", type=float, dest="threshold_fraction",
                      metavar="THRESHOLD",
                      help="peak floor as a fraction of the strongest non-DC "
                           f"amplitude (default {d.threshold_fraction})")
    runp.add_argument("--z", type=_parse_z, dest="z_values", metavar="LIST",
                      help="periodicity shift multiples (default "
                           f"{','.join(map(str, d.z_values))})")
    runp.add_argument("--tol", type=float, help="tolerance for the property "
                      f"checks (default {d.tol:g})")

    sub.add_parser("selftest",
                   help="run the embedded invariant suites on fixtures")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        return selftest()
    if args.command != "run":
        parser.print_help(sys.stderr)
        return 2
    del args.command
    config = RunConfig(**vars(args))
    try:
        return run(config)
    except (ConfigError, DomainError, ZeroTableError) as exc:
        _log(f"usage error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
