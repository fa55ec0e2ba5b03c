"""The figure drivers against the serial bodies they replace.

Every scenario figure is a spec list and a reducer joined by one
``run_specs`` call, with one seed split (``traces_eval.seed_split``).
Each driver's rows must equal those of its verbatim predecessor in
``tests/reference_drivers.py`` on short cells, and so must the rows
``repro campaign --out`` writes. A seed-major mutant of the seed split
must be caught (~15 s).
"""

import dataclasses
import importlib
import json
import pkgutil

import pytest

import repro.experiments.drivers as drivers_pkg
import tests.reference_drivers as reference
from repro.campaign import run_specs
from repro.cli import main
from repro.experiments.drivers import convergence, traces_eval
from repro.experiments.drivers.accuracy import fig19_prediction_accuracy
from repro.experiments.drivers.testbed import fig18_testbed

pytestmark = pytest.mark.bitexact


def _six(row) -> dict:
    """A ``TraceRow``'s fields without the samples the old one kept."""
    return {field: value for field, value in dataclasses.asdict(row).items()
            if not field.endswith("_samples")}


#: Long enough that the schemes' per-seed rows differ, so a chunk
#: holding the wrong seeds shows.
FIG18 = dict(scenarios=("raw",), duration=15.0, seeds=(1, 2))


def test_fig18_averages_seeds_as_before():
    assert fig18_testbed(**FIG18) == reference.fig18_testbed(**FIG18)


def test_fig19_reports_as_before():
    kwargs = dict(traces=("W2",), duration=10.0, seed=1)
    assert fig19_prediction_accuracy(**kwargs) \
        == reference.fig19_prediction_accuracy(**kwargs)


def test_drop_rows_as_before():
    overrides = dict(protocol="rtp", ap_mode="none")
    assert convergence.run_drop("Gcc+FIFO", overrides, k=10) \
        == reference.run_drop("Gcc+FIFO", overrides, k=10)
    assert convergence.fig14_rtp_drop(ks=(10,)) \
        == reference.fig14_rtp_drop(ks=(10,))


@pytest.mark.parametrize("figure, ks", [
    ("fig4_cca_convergence", (2, 10)),
    ("fig14_rtp_drop", (5, 20)),
    ("fig15_tcp_drop", (2, 50)),
])
def test_drop_figures_run_the_same_cells(figure, ks, monkeypatch):
    """Figs. 4, 14 and 15 ask for the cells, in the order and with the
    cap, that the per-cell ``run_drop`` loops ran."""
    monkeypatch.setattr(reference, "run_drop",
                        lambda scheme, overrides, k, seed=1,
                        max_bps=convergence.VIDEO_CAP:
                        (scheme, overrides, k, seed, max_bps))
    monkeypatch.setattr(convergence, "_drop_rows",
                        lambda cells, seed, max_bps:
                        [(scheme, overrides, k, seed, max_bps)
                         for scheme, overrides, k in cells])
    assert getattr(convergence, figure)(ks=ks, seed=3) \
        == getattr(reference, figure)(ks=ks, seed=3)


def test_fig13_curves_as_before():
    kwargs = dict(trace_name="W2", duration=10.0, seeds=(1, 2))
    assert traces_eval.fig13_distributions(**kwargs) \
        == reference.fig13_distributions(**kwargs)


CAMPAIGN = dict(traces=("W2",), schemes=("Gcc+FIFO", "Gcc+Zhuge"),
                seeds=(1, 2), duration=12.0)


def _campaign_rows(tmp_path) -> list[dict]:
    out = tmp_path / "campaign.json"
    assert main(["campaign", "--traces", ",".join(CAMPAIGN["traces"]),
                 "--schemes", ",".join(CAMPAIGN["schemes"]),
                 "--seeds", ",".join(map(str, CAMPAIGN["seeds"])),
                 "--duration", str(CAMPAIGN["duration"]),
                 "--no-cache", "--quiet", "--out", str(out)]) == 0
    return json.loads(out.read_text())["rows"]


@pytest.fixture(scope="module")
def reference_campaign_rows() -> list[dict]:
    return [_six(row) for row in reference.campaign_grid_rows(
        run=run_specs, **CAMPAIGN)]


def test_campaign_rows_as_before(tmp_path, reference_campaign_rows):
    assert _campaign_rows(tmp_path) == reference_campaign_rows


def _seed_major(summaries, seeds):
    rows = len(summaries) // len(seeds)
    return [summaries[row::rows] for row in range(rows)]


def test_a_seed_major_split_is_caught(tmp_path, monkeypatch,
                                      reference_campaign_rows):
    for info in pkgutil.iter_modules(drivers_pkg.__path__):
        module = importlib.import_module(f"{drivers_pkg.__name__}."
                                         f"{info.name}")
        if hasattr(module, "seed_split"):
            monkeypatch.setattr(module, "seed_split", _seed_major)
    assert _campaign_rows(tmp_path) != reference_campaign_rows
    assert fig18_testbed(**FIG18) != reference.fig18_testbed(**FIG18)
