"""Layer spans for the traced run, installed from outside the package.

Each public layer function is replaced, at every module attribute the
pipeline calls it through, by a wrapper that records its self time: its
duration minus the time of the spans it calls. Z is called about 124k times
in zeros-3000, so its wrapper keeps a count and a total per route instead
of a span per call.

Self times of all spans plus cli.self_s (the job's time outside every layer
span) add up to the job's wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np
from zetaspectra import analysis, cli, emit, grid, numtheory, spectral

# span name -> the (module, attribute) pairs it replaces. Spans named cli.*
# belong to the CLI and count towards cli.self_s.
SPANS = {
    "numtheory.find_zeros": [(cli, "find_zeros")],
    "numtheory.sieve": [(cli, "sieve_primes"), (analysis, "sieve_primes"),
                        (numtheory, "sieve_primes")],
    "grid.build_series": [(cli, "build_series"), (grid, "build_series")],
    "spectral.dft": [(cli, "dft"), (spectral, "dft")],
    "cli.checks": [(cli, "_checks")],
    "spectral.periodicity": [(cli, "periodicity_check")],
    "spectral.direct_bins": [(spectral, "direct_bins")],
    "spectral.symmetry": [(cli, "conjugate_symmetry_check"),
                          (spectral, "conjugate_symmetry_check")],
    "spectral.parseval": [(cli, "parseval_check"), (spectral, "parseval_check")],
    "spectral.amplitude_phase": [(emit, "amplitude_phase")],
    "analysis.fermat_spiral": [(cli, "fermat_spiral"),
                               (analysis, "fermat_spiral")],
    "analysis.detect_peaks": [(cli, "detect_peaks"), (analysis, "detect_peaks")],
    "analysis.reconstruct": [(cli, "reconstruct"), (analysis, "reconstruct")],
    "analysis.ratios": [(cli, "frequency_ratio_series"),
                        (cli, "reciprocal_series"),
                        (analysis, "frequency_ratio_series"),
                        (analysis, "reciprocal_series")],
    "analysis.pnt": [(cli, "pnt_ratio"), (analysis, "pnt_ratio")],
    "emit.series": [(cli, "write_series_csv"), (emit, "write_series_csv")],
    "emit.spectrum": [(cli, "write_spectrum_csv"), (emit, "write_spectrum_csv")],
    "emit.spiral": [(cli, "write_spiral_csv"), (emit, "write_spiral_csv")],
    "emit.peaks": [(cli, "write_peaks_csv"), (emit, "write_peaks_csv")],
    "emit.recon": [(cli, "write_recon_csv"), (emit, "write_recon_csv")],
    "emit.ratios": [(cli, "write_ratios_csv"), (emit, "write_ratios_csv")],
    "emit.pnt": [(cli, "write_pnt_csv"), (emit, "write_pnt_csv")],
    "emit.manifest": [(cli, "write_manifest"), (emit, "write_manifest")],
}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.children = []  # child time accumulated by each open span
        self.top_s = 0.0  # time inside outermost spans
        self.z_s = {"em": 0.0, "rs": 0.0}
        self.z_calls = {"em": 0, "rs": 0}

    def _charge_parent(self, dur: float) -> None:
        if self.children:
            self.children[-1] += dur
        else:
            self.top_s += dur

    def _close(self, name: str, dur: float) -> None:
        self.self_s[name] += dur - self.children.pop()
        self._charge_parent(dur)

    def span(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            self.children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, time.perf_counter() - start)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result
        return wrapper

    def z_counter(self, fn):
        def wrapper(t, *args, **kwargs):
            start = time.perf_counter()
            value = fn(t, *args, **kwargs)
            dur = time.perf_counter() - start
            route = "rs" if t >= numtheory.RS_CROSSOVER else "em"
            self.z_s[route] += dur
            self.z_calls[route] += 1
            self._charge_parent(dur)
            return value
        return wrapper

    def install(self) -> None:
        for name, targets in SPANS.items():
            for module, attr in targets:
                setattr(module, attr,
                        self.span(name, getattr(module, attr), COUNTERS.get(name)))
        numtheory.riemann_siegel_Z = self.z_counter(numtheory.riemann_siegel_Z)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of one traced job that took wall_s."""
        out = {f"{name}_s": self.self_s[name]
               for name in SPANS if not name.startswith("cli.")}
        em, rs = self.z_calls["em"], self.z_calls["rs"]
        out["numtheory.z_eval_s"] = self.z_s["em"] + self.z_s["rs"]
        out["numtheory.z_evals"] = em + rs
        out["numtheory.z_evals_rs"] = rs
        out["numtheory.z_eval_em_us"] = 1e6 * self.z_s["em"] / em if em else 0.0
        out["numtheory.z_eval_rs_us"] = 1e6 * self.z_s["rs"] / rs if rs else 0.0
        for name in ("numtheory.zeros_found", "grid.marks",
                     "grid.events_dropped", "spectral.literal_terms",
                     "spectral.periodicity_margin", "analysis.peaks_found"):
            out[name] = self.counts[name]
        cli_spans = sum(s for name, s in self.self_s.items()
                        if name.startswith("cli."))
        out["cli.self_s"] = wall_s - self.top_s + cli_spans
        out["trace.wall_s"] = wall_s
        return out


def _zeros(counts, result, *args, **kwargs):
    counts["numtheory.zeros_found"] += len(result)


def _marks(counts, series, events, *args, **kwargs):
    counts["grid.marks"] += series.mark_count
    counts["grid.events_dropped"] += len(events) - series.mark_count


def _literal_terms(counts, result, values, indices):
    counts["spectral.literal_terms"] += np.size(values) * np.size(indices)


def _margin(counts, reports, *args, **kwargs):
    worst = max((r.max_abs_diff / r.tol for r in reports), default=0.0)
    counts["spectral.periodicity_margin"] = max(
        counts["spectral.periodicity_margin"], worst)


def _peaks(counts, peaks, *args, **kwargs):
    counts["analysis.peaks_found"] += len(peaks)


COUNTERS = {
    "numtheory.find_zeros": _zeros,
    "grid.build_series": _marks,
    "spectral.direct_bins": _literal_terms,
    "spectral.periodicity": _margin,
    "analysis.detect_peaks": _peaks,
}
