"""Command-line pipeline: events -> indicator series -> spectrum -> analyses.

Every figure-worthy intermediate is emitted as CSV; a JSON manifest records
the emitted files, row counts, property-check verdicts and versions. Logs go
to stderr, data only to files. Exit status: 0 all checks pass, 1 a check
failed, 2 bad usage or input (a ``DomainError``, the parser's and the
library's alike) or a path that cannot be read or written: one stderr line
from ``main``. ``run`` computes before it logs or writes, so bad input leaves
no log line and no output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (detect_peaks, fermat_spiral, frequency_ratio_series,
                       pnt_ratio, reciprocal_series, reconstruct)
from .emit import (write_manifest, write_peaks_csv, write_pnt_csv,
                   write_ratios_csv, write_recon_csv, write_series_csv,
                   write_spectrum_csv, write_spiral_csv)
from .grid import GridSpec, MangoldtSeries, build_series
from .numtheory import (DomainError, EventSequence, MissedZeroError,
                        _integer, find_zeros, load_zeros, sieve_primes,
                        synthetic_train)
from .spectral import (conjugate_symmetry_check, dft, parseval_check,
                       periodicity_check)

EMIT_CHOICES = ("series", "spectrum", "spiral", "peaks", "recon", "ratios", "pnt")
SOURCES = ("zeros-computed", "zeros-file", "primes", "synthetic")
PNT_CHECKPOINTS = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)


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
        for name in ("t_max", "gap", "delta", "tol"):  # bound is t_max if given
            value = self.bound if name == "t_max" else getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name.replace('_', '-')} must be positive "
                                  f"and finite, got {value}")
        if self.source not in SOURCES:
            raise DomainError(f"unknown source {self.source!r}")
        if self.source == "zeros-file" and not self.zero_file:
            raise DomainError("source zeros-file requires --zero-file")
        if self.source != "zeros-file" and self.zero_file:
            raise DomainError("--zero-file only applies to source zeros-file")
        self.limit = _integer("limit", self.limit)
        if self.limit < 2:
            raise DomainError(f"limit must be >= 2, got {self.limit}")
        if self.length is not None:  # GridSpec, in run, refuses its range
            self.length = _integer("length", self.length)
        unknown = set(self.emit) - set(EMIT_CHOICES)
        if unknown:
            raise DomainError(f"unknown emit names: {sorted(unknown)}")
        if self.k_terms != "all":
            self.k_terms = _integer("k-terms", self.k_terms)
            if self.k_terms < 1:
                raise DomainError(f"k-terms must be >= 1, got {self.k_terms}")
        if not 0.0 < self.threshold_fraction <= 1.0:
            raise DomainError(
                f"threshold must be in (0, 1], got {self.threshold_fraction}")
        self.z_values = tuple(_integer("z value", z) for z in self.z_values)
        if any(z < 1 for z in self.z_values):
            raise DomainError(f"z values must be >= 1, got {self.z_values}")
        if len(set(self.z_values)) < len(self.z_values):
            raise DomainError(f"z values must not repeat, got {self.z_values}")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _build_events(config: RunConfig) -> tuple[EventSequence, str]:
    """The run's events and a one-line description of where they came from."""
    if config.source == "zeros-computed":
        return (find_zeros(0.0, config.bound, delta=config.delta),
                f"zeta zeros computed up to t = {config.bound}")
    if config.source == "zeros-file":
        events = load_zeros(config.zero_file)
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


def _checks(series: MangoldtSeries, spectrum, config: RunConfig) -> list:
    """Each check's (name, error) pair."""
    n = series.grid.length
    reports = periodicity_check(series, list(config.z_values), tol=config.tol)
    if reports and reports[0].bins < n:
        _log(f"periodicity check restricted to {reports[0].bins} of {n} bins")
    errors = [(f"periodicity_z{r.z}", r.max_abs_diff) for r in reports]
    errors += [("conjugate_symmetry", conjugate_symmetry_check(spectrum)),
               ("parseval", parseval_check(series, spectrum))]
    return errors


def run(config: RunConfig) -> int:
    """Compute, then log, then write; returns the process exit status."""
    config.validate()
    # no zero, prime or train is made for a grid too long for the bound
    if config.length is not None:
        grid = GridSpec(delta=config.delta, length=config.length)
    elif config.source != "zeros-file":  # a table's grid waits for the table
        top = config.limit if config.source == "primes" else config.bound
        GridSpec.for_events(EventSequence([top]), delta=config.delta)
    events, what = _build_events(config)
    if config.length is None:
        grid = GridSpec.for_events(events, delta=config.delta)
    series = build_series(events, grid)
    spectrum = dft(series)
    # before the writers fragment the heap: the inverse FFT's temporaries
    # set the run's peak memory
    if "recon" in config.emit:
        recon = reconstruct(spectrum, config.k_terms)
    errors = _checks(series, spectrum, config)
    if "ratios" in config.emit:
        ratios = frequency_ratio_series(spectrum)
        recips = reciprocal_series(spectrum)
    _log(what)
    _log(f"{len(events)} events on a grid of {grid.length} samples "
         f"(delta {grid.delta})")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

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
        emitted("peaks.csv",
                write_peaks_csv(out_dir / "peaks.csv", spectrum, peaks))
    if "recon" in config.emit:
        emitted("recon.csv",
                write_recon_csv(out_dir / "recon.csv", series, recon))
    if "ratios" in config.emit:
        emitted("ratios.csv",
                write_ratios_csv(out_dir / "ratios.csv", ratios, recips))
    if "pnt" in config.emit:
        x = np.array(PNT_CHECKPOINTS)
        counts = np.searchsorted(sieve_primes(x[-1]).events, x, side="right")
        pnt = np.array(list(map(pnt_ratio, x.tolist(), counts.tolist())))
        emitted("pnt.csv", write_pnt_csv(out_dir / "pnt.csv", x, counts, pnt))

    manifest = {
        "config_echo": dict(asdict(config), length=grid.length,
                            out_dir=str(out_dir)),
        "files": files,
        # the verdict is err < tol, which a NaN fails; JSON has no NaN or inf
        "checks": [{"name": name, "pass": err < config.tol,
                    "max_error": err if math.isfinite(err) else None}
                   for name, err in errors],
        "versions": {
            "zetaspectra": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    write_manifest(out_dir / "manifest.json", manifest)
    _log(f"wrote manifest.json ({len(files)} files, {len(errors)} checks)")

    failed = [(name, err) for name, err in errors if not err < config.tol]
    for name, err in failed:
        _log(f"CHECK FAILED: {name} max_error {err:.3e} (tol {config.tol})")
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


def _suite_error(suite: str, series: MangoldtSeries) -> float:
    spectrum = dft(series)
    if suite == "round_trip":
        return float(np.max(np.abs(reconstruct(spectrum) - series.values)))
    if suite == "periodicity":
        reports = periodicity_check(series, [1, 2, 3])
        return max(r.max_abs_diff for r in reports)
    if suite == "symmetry":
        return conjugate_symmetry_check(spectrum)
    if suite == "parseval":
        return parseval_check(series, spectrum)
    x, y = fermat_spiral(spectrum)
    return float(np.max(np.abs(x ** 2 + y ** 2 - spectrum.frequencies ** 2)))


def selftest() -> int:
    """Run the embedded invariant suites on built-in fixtures.

    Each suite prints its largest error over the fixtures against its bound;
    the status is 1 when any suite exceeds its bound, else 0.
    """
    fixtures = _selftest_fixtures()
    failures = []
    for suite, bound in SELFTEST_BOUNDS.items():
        err = max(_suite_error(suite, s) for s in fixtures)
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

class _Parser(argparse.ArgumentParser):
    """Raises parse errors as DomainError for main; subparsers inherit it."""

    def error(self, message: str):
        raise DomainError(message)


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


def _parse_k(text: str) -> int | str:
    try:
        return text if text == "all" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'all', got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zetaspectra",
        description="Indicator series over zeta zeros or primes, their DFT "
                    "spectra, spectral property checks, and harmonic "
                    "reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

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
    runp.add_argument("--k-terms", type=_parse_k, help="bins used in the "
                      f"reconstruction (default {d.k_terms})")
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
    try:
        args = build_parser().parse_args(argv)
        if args.command == "selftest":
            return selftest()
        del args.command
        return run(RunConfig(**vars(args)))
    except (DomainError, MissedZeroError, OSError) as exc:
        _log(f"usage error: {exc}")
        return 2
