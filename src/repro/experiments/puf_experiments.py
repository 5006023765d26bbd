"""PUF experiments: Figures 5 and 6, Table 4, Table 10 and the aging study.

The pair-based experiments (fig5/fig6/aging) are structured as *unit jobs
plus assembly*: ``*_unit_jobs`` builds one
:class:`~repro.engine.jobs.PUFPairsJob` per table cell and ``assemble_*``
turns their values into the :class:`ExperimentResult` table.  The serial
drivers simply run the unit jobs inline, so
``repro.engine.sharding.run_sharded`` can split the same pair batches across
a process pool and reproduce the serial tables bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.dram.population import paper_population
from repro.experiments.base import ExperimentResult
from repro.puf import PUF_FACTORIES
from repro.puf.evaluation import FIGURE6_TEMPERATURE_DELTAS
from repro.puf.jaccard import JaccardDistribution
from repro.puf.timing import PUFTimingModel
from repro.rng.nist.suite import run_nist_suite
from repro.rng.stream import signature_bitstream

#: Voltage classes of Figure 5, as (job voltage key, table label).
FIG5_VOLTAGE_CLASSES = (("ddr3", "DDR3 (1.50V)"), ("ddr3l", "DDR3L (1.35V)"))


def _population(quick: bool):
    population = paper_population()
    return population


# ----------------------------------------------------------------------
# Figure 5: PUF quality
# ----------------------------------------------------------------------
def fig5_pairs(quick: bool) -> int:
    """Jaccard pairs per Figure 5 cell (the paper uses 10,000)."""
    return 120 if quick else 2000


def fig5_unit_jobs(quick: bool) -> list[Any]:
    """One quality pair batch per (PUF, voltage class) cell, in table order."""
    from repro.engine.jobs import PUFPairsJob

    return [
        PUFPairsJob(
            puf=puf_name,
            mode="quality",
            pairs=fig5_pairs(quick),
            seed=17,
            voltage=voltage,
        )
        for puf_name in PUF_FACTORIES
        for voltage, _ in FIG5_VOLTAGE_CLASSES
    ]


def assemble_fig5(quick: bool, values: Sequence[Any]) -> ExperimentResult:
    """Build the Figure 5 table from unit-job values (pair index lists)."""
    result = ExperimentResult(
        experiment_id="fig5",
        title="Intra/Inter Jaccard indices of the three DRAM PUFs",
        headers=[
            "PUF",
            "Voltage class",
            "Intra-Jaccard (mean)",
            "Intra-Jaccard (std)",
            "Inter-Jaccard (mean)",
            "Inter-Jaccard (std)",
        ],
    )
    labels = dict(FIG5_VOLTAGE_CLASSES)
    for job, value in zip(fig5_unit_jobs(quick), values):
        intra = JaccardDistribution.from_values(value["intra"])
        inter = JaccardDistribution.from_values(value["inter"])
        result.add_row(
            job.puf,
            labels[job.voltage],
            round(intra.mean, 3),
            round(intra.std, 3),
            round(inter.mean, 3),
            round(inter.std, 3),
        )
    result.add_note(
        "paper: CODIC-sig has Intra ~1 and Inter ~0; the Latency PUF has "
        "dispersed Intra and tight Inter; PreLatPUF has tight Intra but "
        "dispersed Inter; DDR3L results are slightly better than DDR3"
    )
    return result


def run_fig5(quick: bool = True) -> ExperimentResult:
    """Figure 5: Intra-/Inter-Jaccard distributions per PUF and voltage class."""
    return assemble_fig5(quick, [job.run() for job in fig5_unit_jobs(quick)])


# ----------------------------------------------------------------------
# Figure 6: temperature study
# ----------------------------------------------------------------------
def fig6_pairs(quick: bool) -> int:
    """Jaccard pairs per Figure 6 point."""
    return 60 if quick else 1000


def fig6_unit_jobs(quick: bool) -> list[Any]:
    """One temperature pair batch per (PUF, delta) point, in table order."""
    from repro.engine.jobs import PUFPairsJob

    return [
        PUFPairsJob(
            puf=puf_name,
            mode="temperature",
            pairs=fig6_pairs(quick),
            seed=23,
            temperature_delta_c=delta,
        )
        for puf_name in PUF_FACTORIES
        for delta in FIGURE6_TEMPERATURE_DELTAS
    ]


def assemble_fig6(quick: bool, values: Sequence[Any]) -> ExperimentResult:
    """Build the Figure 6 table from unit-job values."""
    result = ExperimentResult(
        experiment_id="fig6",
        title="Intra-Jaccard indices vs. temperature delta from 30C",
        headers=["PUF"] + [f"dT={delta:.0f}C" for delta in FIGURE6_TEMPERATURE_DELTAS],
    )
    deltas = len(FIGURE6_TEMPERATURE_DELTAS)
    for index, puf_name in enumerate(PUF_FACTORIES):
        row_values = values[index * deltas : (index + 1) * deltas]
        means = [
            round(JaccardDistribution.from_values(value["intra"]).mean, 3)
            for value in row_values
        ]
        result.add_row(puf_name, *means)
    result.add_note(
        "paper: CODIC-sig and PreLatPUF stay close to 1 across the full 55C "
        "delta; the DRAM Latency PUF degrades substantially"
    )
    return result


def run_fig6(quick: bool = True) -> ExperimentResult:
    """Figure 6: Intra-Jaccard versus temperature delta."""
    return assemble_fig6(quick, [job.run() for job in fig6_unit_jobs(quick)])


# ----------------------------------------------------------------------
# Aging study
# ----------------------------------------------------------------------
def aging_study_pairs(quick: bool) -> int:
    """Jaccard pairs of the accelerated-aging study."""
    return 60 if quick else 500


def aging_unit_jobs(quick: bool) -> list[Any]:
    """The single CODIC-sig aging pair batch."""
    from repro.engine.jobs import PUFPairsJob

    return [
        PUFPairsJob(
            puf="CODIC-sig PUF",
            mode="aging",
            pairs=aging_study_pairs(quick),
            seed=29,
        )
    ]


def assemble_aging(quick: bool, values: Sequence[Any]) -> ExperimentResult:
    """Build the aging table from the unit-job value."""
    distribution = JaccardDistribution.from_values(values[0]["intra"])
    result = ExperimentResult(
        experiment_id="aging",
        title="CODIC-sig PUF robustness to accelerated aging",
        headers=["PUF", "Intra-Jaccard mean (after aging)", "Fraction == 1.0"],
    )
    result.add_row(
        "CODIC-sig PUF",
        round(distribution.mean, 3),
        round(distribution.fraction_above(0.999), 3),
    )
    result.add_note("paper: most Intra-Jaccard indices remain 1 after aging")
    return result


def run_aging(quick: bool = True) -> ExperimentResult:
    """Section 6.1.1 aging study: Intra-Jaccard before vs. after accelerated aging."""
    return assemble_aging(quick, [job.run() for job in aging_unit_jobs(quick)])


def run_table4(quick: bool = True) -> ExperimentResult:
    """Table 4: PUF evaluation time for 8 KB segments."""
    model = PUFTimingModel()
    table = model.table4()
    result = ExperimentResult(
        experiment_id="table4",
        title="PUF evaluation time (8 KB segments)",
        headers=["PUF", "With filter (ms)", "Without filter (ms)"],
    )
    result.add_row(
        "DRAM Latency PUF", round(table["DRAM Latency PUF"]["with_filter_ms"], 2), "-"
    )
    result.add_row(
        "PreLatPUF",
        round(table["PreLatPUF"]["with_filter_ms"], 2),
        round(table["PreLatPUF"]["without_filter_ms"], 2),
    )
    result.add_row(
        "CODIC-sig PUF",
        round(table["CODIC-sig PUF"]["with_filter_ms"], 2),
        round(table["CODIC-sig PUF"]["without_filter_ms"], 2),
    )
    result.add_note("paper: 88.2 ms / 7.95 (1.59) ms / 4.41 (0.88) ms")
    return result


def run_table10(quick: bool = True) -> ExperimentResult:
    """Table 10: NIST SP 800-22 results on whitened CODIC-sig streams."""
    population = _population(quick)
    target_bits = 60_000 if quick else 2_000_000
    stream = signature_bitstream(
        population.modules, target_bits=target_bits, seed=31, mode="addresses"
    )
    suite = run_nist_suite(stream)
    result = ExperimentResult(
        experiment_id="table10",
        title="NIST SP 800-22 results for whitened CODIC-sig streams",
        headers=["NIST Test", "p-value", "Result"],
    )
    for name, p_value, verdict in suite.as_table_rows():
        result.add_row(name, p_value, verdict)
    result.add_note(
        f"stream length: {suite.stream_bits} bits "
        f"({'quick' if quick else 'paper-scale'} run); paper: all 15 tests PASS"
    )
    return result
