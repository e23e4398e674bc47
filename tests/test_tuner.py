"""Fractional-order sweep and the two-stage tuning procedure."""

import hashlib
import math
import random
import tracemalloc
import warnings
from collections import Counter

import pytest
from numpy.testing import assert_allclose

from fracpid import (
    ClosedLoopTarget,
    Cubic,
    DominanceWarning,
    IndefiniteWeights,
    OutsideWedge,
    PidGains,
    Plant,
    TargetUnreachable,
    UnstableClosedLoop,
    WedgeClass,
    classify_wedge,
    closed_loop_poles,
    default_scenario,
    equivalent_pid,
    m_study,
    mcurve,
    place_gains,
    riccati_package,
    simulate_closed_loop,
    two_stage_tune,
    w_zeros,
)
from fracpid import fractional_map, numerics, pole_placement, tuner
from fracpid.cli import PRESETS
from fracpid.tuner import MAX_Q_POINTS, ZETA_SLACK, q_grid

from cases import BENCHMARKS, gains_tuple, max_rel_err

P1 = BENCHMARKS[0]


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_q_grid_descending_inclusive():
    assert_allclose(q_grid(1.1, 0.9, 0.1), [1.1, 1.0, 0.9], rtol=1e-12)
    assert_allclose(q_grid(1.0, 1.0, 0.1), [1.0], rtol=0.0)


def test_q_grid_empty_when_reversed():
    assert q_grid(0.9, 1.1, 0.1) == []


@pytest.mark.parametrize(
    "q_from, q_to", [(5.0, 6.0), (3.0, 1.0), (0.5, math.inf), (math.nan, 1.0), (-1.0, 0.5)]
)
def test_q_grid_checks_its_domain_before_its_direction(q_from, q_to):
    with pytest.raises(ValueError, match=r"q grid must lie inside \(0, 2\]"):
        q_grid(q_from, q_to, 0.01)


def test_q_grid_validation():
    with pytest.raises(ValueError):
        q_grid(1.1, 0.9, 0.0)
    with pytest.raises(ValueError):
        q_grid(2.5, 0.9, 0.1)
    with pytest.raises(ValueError):
        q_grid(1.1, -0.1, 0.1)


def test_q_grid_caps_the_point_count_before_building():
    step = 2.0**-17  # exact, so the grid ends exactly on q_to
    assert len(q_grid(1.0, 1.0 - (MAX_Q_POINTS - 1) * step, step)) == MAX_Q_POINTS
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"q grid of {MAX_Q_POINTS + 1} points"):
            q_grid(1.0, 1.0 - MAX_Q_POINTS * step, step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # the capped list alone would take ~3 MB
    with pytest.raises(ValueError, match="q grid of inf points"):
        q_grid(1.5, 0.5, 5e-324)


def test_q_grid_rejects_nan_step():
    with pytest.raises(ValueError, match="q_step must be positive"):
        q_grid(1.1, 0.9, float("nan"))
    with pytest.raises(ValueError, match="q_step must be positive"):
        mcurve(P1.plant, P1.lqr_gains, 1.0, 0.8, float("nan"))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_mcurve_around_unit_order():
    gains = place_gains(P1.plant, P1.stage1)
    points = mcurve(P1.plant, gains, 1.1, 0.9, 0.1)
    assert [round(p.q, 10) for p in points] == [1.1, 1.0, 0.9]
    assert all(p.wedge is WedgeClass.UNDER_DAMPED and p.stable for p in points)

    raised, unit, lowered = points
    assert_allclose(unit.dominant_zeta, 0.75, rtol=1e-6)
    assert_allclose(unit.dominant_omega_n, 7.0, rtol=1e-6)
    assert_allclose(lowered.dominant_zeta, 0.934001, rtol=1e-5)
    assert_allclose(lowered.dominant_omega_n, 8.87916, rtol=1e-5)
    # raising the order above 1 degrades the damping sharply
    assert raised.dominant_zeta < 0.75
    assert_allclose(raised.dominant_zeta, 0.565264, rtol=1e-5)


def test_mcurve_single_point_matches_stage1():
    gains = place_gains(P1.plant, P1.stage1)
    (point,) = mcurve(P1.plant, gains, 1.0, 1.0, 0.1)
    assert max_rel_err(gains_tuple(point.equivalent_gains), gains_tuple(gains)) <= 1e-9
    assert_allclose(point.dominant_zeta, P1.stage1.zeta_cl, rtol=1e-9)


def test_mcurve_flags_flip_once_at_wedge_exit():
    gains = place_gains(P1.plant, P1.stage1)
    points = mcurve(P1.plant, gains, 1.0, 0.72, 0.01)
    stable_flags = [p.stable for p in points]
    flips = sum(1 for a, b in zip(stable_flags, stable_flags[1:]) if a != b)
    assert flips == 1
    exit_q = w_zeros(gains).phi / math.pi
    for p in points:
        if p.q > exit_q:
            assert p.wedge is WedgeClass.UNDER_DAMPED and p.stable
            assert p.dominant_zeta is not None
        else:
            assert p.wedge is WedgeClass.HYPER_DAMPED and not p.stable
            assert p.equivalent_gains is None and p.dominant_zeta is None


# ---------------------------------------------------------------------------
# two-stage procedure
# ---------------------------------------------------------------------------

def test_two_stage_underdamped_benchmark():
    report = two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93, q_step=0.005)
    assert_allclose(report.chosen_q, 0.9, rtol=1e-12)
    assert_allclose(report.achieved_zeta, 0.9340007966, rtol=1e-9)
    assert_allclose(report.achieved_omega_n, 8.8791641783, rtol=1e-9)
    assert max_rel_err(
        gains_tuple(report.suboptimal_gains), gains_tuple(P1.equivalent_gains)
    ) <= 5e-3
    assert max_rel_err(
        gains_tuple(report.single_stage_gains), gains_tuple(P1.lqr_gains)
    ) <= 1e-2
    assert all(e > 0.0 for e in report.delta_p_eigs)
    assert report.cost_verdict == "lqr-higher"
    assert report.initial_control_lqr == report.single_stage_gains.kp
    assert report.initial_control_subopt == report.suboptimal_gains.kp
    assert report.initial_control_lqr > report.initial_control_subopt
    assert report.riccati_lqr.care_residual <= 1e-8
    assert report.riccati_subopt.care_residual <= 1e-8


def test_two_stage_report_consistency():
    report = two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93)
    sub = closed_loop_poles(P1.plant, report.suboptimal_gains)
    assert_allclose(sub.dominant_zeta, report.achieved_zeta, rtol=1e-9)
    assert_allclose(sub.dominant_omega_n, report.achieved_omega_n, rtol=1e-9)
    comp = closed_loop_poles(P1.plant, report.single_stage_gains)
    assert_allclose(comp.dominant_zeta, report.achieved_zeta, rtol=1e-6)
    assert_allclose(comp.dominant_omega_n, report.achieved_omega_n, rtol=1e-6)


def test_two_stage_critically_damped_benchmark():
    bench = BENCHMARKS[1]
    report = two_stage_tune(bench.plant, bench.stage1, desired_zeta=0.92)
    assert_allclose(report.chosen_q, 0.9, rtol=1e-12)
    assert_allclose(report.achieved_zeta, bench.achieved[0], rtol=1e-2)
    assert_allclose(report.achieved_omega_n, bench.achieved[1], rtol=1e-2)


def test_two_stage_search_stops_at_first_grid_hit():
    report = two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93, q_step=0.005)
    previous_q = report.chosen_q + 0.005
    gains_prev = equivalent_pid(place_gains(P1.plant, P1.stage1), previous_q)
    prev = closed_loop_poles(P1.plant, gains_prev)
    assert prev.dominant_zeta < 0.93


def test_two_stage_degenerate_target_stays_at_unit_order():
    report = two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.75 + 1e-9)
    assert report.chosen_q == 1.0
    assert max_rel_err(
        gains_tuple(report.suboptimal_gains), gains_tuple(report.stage1_gains)
    ) <= 1e-9


def test_two_stage_refinement_tightens_the_order():
    coarse = two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93, q_step=0.005)
    refined = two_stage_tune(
        P1.plant, P1.stage1, desired_zeta=0.93, q_step=0.005, refine=True
    )
    assert coarse.chosen_q < refined.chosen_q < coarse.chosen_q + 0.005
    assert refined.achieved_zeta >= 0.93 - 1e-8


def test_two_stage_unreachable_when_grid_skips_the_wedge():
    # a quarter-step grid jumps from q=1 straight past the wedge exit
    with pytest.raises(TargetUnreachable):
        two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.99, q_step=0.25)


def test_two_stage_validates_preconditions():
    with pytest.raises(ValueError):
        two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.5)
    with pytest.raises(ValueError):
        two_stage_tune(P1.plant, P1.stage1, desired_zeta=1.0)
    with pytest.raises(ValueError):
        two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93, q_step=-0.1)


def test_two_stage_rejects_nan_step():
    with pytest.raises(ValueError, match="q_step must be positive"):
        two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93, q_step=float("nan"))


def test_single_stage_gains_exceed_suboptimal_on_benchmarks():
    for bench in BENCHMARKS:
        report = two_stage_tune(bench.plant, bench.stage1, bench.desired_zeta)
        sub, single = report.suboptimal_gains, report.single_stage_gains
        assert single.kp > sub.kp
        assert single.ki > sub.ki
        assert single.kd > sub.kd


# ---------------------------------------------------------------------------
# the bounded stage-2 walk against an unbounded reference
# ---------------------------------------------------------------------------

def _reference_search(plant, stage1_target, desired_zeta, q_step, refine):
    """Stage-2 search as an unbounded walk down from q = 1 that stops at the
    first hit and fails at the first order outside the wedge or unstable.
    Returns (chosen q, gains, pole report), or the walk's TargetUnreachable
    message when unreachable: the grid-ran-out text where that order lies
    below phi/pi, else the unstable text."""
    stage1_gains = place_gains(plant, stage1_target)
    phi = w_zeros(stage1_gains).phi

    def probe(q):
        if classify_wedge(phi, q) is not WedgeClass.UNDER_DAMPED:
            return None
        gains = equivalent_pid(stage1_gains, q)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DominanceWarning)
                return gains, closed_loop_poles(plant, gains)
        except UnstableClosedLoop:
            return None

    step_count = 0
    while True:
        q = 1.0 - step_count * q_step
        result = probe(q) if q > 0.0 else None
        if result is None and q < phi / math.pi:
            return (f"no order on the {q_step:g} grid above phi/pi={phi / math.pi:g} "
                    f"reaches damping {desired_zeta:g}")
        if result is None:
            return (f"loop unstable or zeros outside the under-damped wedge at q={q:g} "
                    f"before damping {desired_zeta:g} was reached")
        if result[1].dominant_zeta >= desired_zeta - ZETA_SLACK:
            break
        step_count += 1
    gains, report = result
    if refine:
        half = q_step
        for _ in range(2):
            half *= 0.5
            candidate = q + half
            if candidate > 1.0:
                continue
            result = probe(candidate)
            if result is not None and result[1].dominant_zeta >= desired_zeta - ZETA_SLACK:
                q, (gains, report) = candidate, result
    return q, gains, report


def _bench_designs(seed, count):
    """Random designs from the benchmark's design-sweep ranges and deck:
    13/3/4 of every 20 at q_step 0.005/0.001/0.0002, some with refine."""
    deck = ([(0.005, False)] * 10 + [(0.005, True)] * 3
            + [(0.001, False)] * 2 + [(0.001, True)]
            + [(0.0002, False)] * 3 + [(0.0002, True)])
    rng = random.Random(seed)

    def loguniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for i in range(count):
        q_step, refine = deck[i % len(deck)]
        plant = Plant(loguniform(0.5, 50.0), loguniform(0.05, 5.0), loguniform(0.1, 20.0))
        zc, m = rng.uniform(0.5, 0.8), rng.uniform(6.0, 12.0)
        wc = plant.omega_n_ol * max(1.0, plant.zeta_ol) * rng.uniform(2.5, 5.0)
        desired = zc + (1.0 - zc) * rng.uniform(0.3, 0.75)
        yield plant, ClosedLoopTarget(zc, wc, m), desired, q_step, refine


def _tune(plant, target, desired, q_step, refine=False):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IndefiniteWeights)
        return two_stage_tune(plant, target, desired, q_step=q_step, refine=refine)


def _assert_same_outcome(plant, target, desired, q_step, refine):
    """two_stage_tune against _reference_search, bit for bit; returns whether
    the target was reached."""
    expected = _reference_search(plant, target, desired, q_step, refine)
    case = (plant, target, desired, q_step, refine)
    try:
        report = _tune(plant, target, desired, q_step, refine)
    except TargetUnreachable as exc:
        assert str(exc) == expected, case
        return False
    assert not isinstance(expected, str), case
    q, gains, poles = expected
    assert report.chosen_q == q, case
    assert report.suboptimal_gains == gains, case
    assert (report.achieved_zeta, report.achieved_omega_n) == (
        poles.dominant_zeta, poles.dominant_omega_n
    ), case
    return True


def test_bounded_walk_matches_unbounded_reference_bit_for_bit():
    outcomes = Counter(
        _assert_same_outcome(*design) for design in _bench_designs(seed=2, count=1000)
    )
    assert outcomes[False] > 0 and outcomes[True] > 900


def test_walk_on_a_coarser_than_unit_step_probes_only_unit_order():
    # one grid point, q = 1, which leaves the stage-1 damping unchanged
    with pytest.raises(TargetUnreachable, match="grid above phi/pi"):
        two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93, q_step=1.5)
    assert _reference_search(P1.plant, P1.stage1, 0.93, 1.5, False).startswith("no order")


# ---------------------------------------------------------------------------
# the strided search at fine steps: hostile floors and probes that raise
# ---------------------------------------------------------------------------

def _first_damping_peak(plant, stage1_gains, q_step):
    """Grid index and damping of the first strict local maximum of the
    dominant damping along the walk from q = 1, or None when the walk
    fails or the damping passes 0.999 first."""
    phi = w_zeros(stage1_gains).phi
    zetas = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DominanceWarning)
        for k in range(int(1.0 / q_step)):
            q = 1.0 - k * q_step
            if classify_wedge(phi, q) is not WedgeClass.UNDER_DAMPED:
                return None
            try:
                zetas.append(closed_loop_poles(plant, equivalent_pid(stage1_gains, q)).dominant_zeta)
            except UnstableClosedLoop:
                return None
            if k >= 2 and zetas[-3] < zetas[-2] > zetas[-1]:
                return k - 1, zetas[-2]
            if zetas[-1] >= 0.999:
                return None
    return None


@pytest.mark.parametrize("q_step,count", [(0.001, 400), (0.0002, 200)])
def test_floor_just_under_the_first_damping_peak_matches_the_walk(q_step, count):
    # the target is met only at the peak itself, a one-point excursion of the
    # damping, which a search that skips grid orders could step over
    floors = 0
    for plant, target, _, _, _ in _bench_designs(seed=3, count=count):
        peak = _first_damping_peak(plant, place_gains(plant, target), q_step)
        if peak is None or peak[1] <= target.zeta_cl:
            continue
        k, zeta = peak
        desired = zeta + ZETA_SLACK
        while desired - ZETA_SLACK > zeta:
            desired = math.nextafter(desired, 0.0)
        assert _assert_same_outcome(plant, target, desired, q_step, refine=False)
        assert _tune(plant, target, desired, q_step).chosen_q == 1.0 - k * q_step
        floors += 1
    assert floors >= 10


class _ProbeFault(Exception):
    """Raised by a patched stage-2 probe, carrying the order it was asked for."""


def _probe_raising(monkeypatch, raises_at):
    """Patch tuner._probe to raise _ProbeFault(q) wherever raises_at(q) holds;
    returns the list of orders it raised at."""
    probe, raised = tuner._probe, []

    def patched(plant, stage1_gains, phi, q):
        if raises_at(q):
            raised.append(q)
            raise _ProbeFault(q)
        return probe(plant, stage1_gains, phi, q)

    monkeypatch.setattr(tuner, "_probe", patched)
    return raised


@pytest.mark.parametrize("q_step", [0.0002, 0.001])
def test_a_probe_that_raises_below_the_answer_never_surfaces(monkeypatch, q_step):
    clean = two_stage_tune(P1.plant, P1.stage1, 0.93, q_step=q_step, refine=True)
    raised = _probe_raising(monkeypatch, lambda q: q < clean.chosen_q - 0.5 * q_step)
    report = two_stage_tune(P1.plant, P1.stage1, 0.93, q_step=q_step, refine=True)
    assert raised  # the search did look past its answer
    assert (report.chosen_q, report.suboptimal_gains, report.achieved_zeta) == (
        clean.chosen_q, clean.suboptimal_gains, clean.achieved_zeta
    )


@pytest.mark.parametrize("q_step", [0.0002, 0.001])
@pytest.mark.parametrize("where", ["next", "stride end", "past stride end", "mid", "last"])
def test_a_probe_that_raises_above_the_answer_raises_where_the_walk_would(
    monkeypatch, q_step, where
):
    # every order from grid index k down to just above the answer raises; a
    # walk over every order raises first at k
    grid = q_grid(1.0, w_zeros(place_gains(P1.plant, P1.stage1)).phi / math.pi, q_step)
    answer = grid.index(two_stage_tune(P1.plant, P1.stage1, 0.93, q_step=q_step).chosen_q)
    stride = round(0.005 / q_step)
    k = {"next": 1, "stride end": stride, "past stride end": stride + 1,
         "mid": 2 * stride + 3, "last": answer - 1}[where]
    assert k < answer
    _probe_raising(monkeypatch, lambda q: grid[answer] < q <= grid[k])
    with pytest.raises(_ProbeFault) as caught:
        two_stage_tune(P1.plant, P1.stage1, 0.93, q_step=q_step)
    assert caught.value.args == (grid[k],)


def test_walks_silence_dominance_warning_only_inside():
    # m = 4 at q = 1; lowering q drops the dominance below 3 before the
    # damping reaches 0.9 (q = 0.94, dominance ~2.26)
    target = ClosedLoopTarget(0.75, 7.0, 4.0)
    stage1 = place_gains(P1.plant, target)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DominanceWarning)
        before = list(warnings.filters)
        points = mcurve(P1.plant, stage1, 1.0, 0.72, 0.01)
        assert warnings.filters == before
        report = two_stage_tune(P1.plant, target, desired_zeta=0.9)
        assert warnings.filters == before
        with pytest.raises(DominanceWarning):
            closed_loop_poles(P1.plant, report.suboptimal_gains)
    weak = [p for p in points if p.stable and p.q >= report.chosen_q]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DominanceWarning)
        ratios = [closed_loop_poles(P1.plant, p.equivalent_gains).dominance_ratio for p in weak]
    assert ratios[0] > 3.0 > ratios[-1]
    assert len(caught) == sum(r < 3.0 for r in ratios) > 0


def _locked(*args, **kwargs):
    raise AssertionError("library code touched the warning filters")


def test_library_calls_never_touch_the_warning_filters():
    # the filters are process-wide, so a library that changes them races
    # with every other thread; the CLI alone decides what is shown
    designs = [
        (Plant(*p["plant"]), ClosedLoopTarget(*p["target"]), p.get("desired_zeta"))
        for p in PRESETS.values()
    ]
    # m = 4 at q = 1, dominance 2.3 at the refined order that reaches 0.9
    designs.append((P1.plant, ClosedLoopTarget(0.75, 7.0, 4.0), 0.9))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(warnings, "simplefilter", _locked)
            patch.setattr(warnings, "catch_warnings", _locked)
            for plant, target, desired in designs:
                gains = [place_gains(plant, target)]
                if desired is not None:
                    report = two_stage_tune(plant, target, desired, refine=True)
                    gains += [report.suboptimal_gains, report.single_stage_gains]
                mcurve(plant, gains[0], 1.3, 0.7, 0.01)
                scenario = default_scenario(plant, target.zeta_cl, target.omega_n_cl)
                for g in gains:
                    riccati_package(plant, g)
                    simulate_closed_loop(plant, g, scenario)
                m_study(plant, target.zeta_cl, target.omega_n_cl, [2.0, target.m])
    # the weak design and m = 2 still warn, through the caller's filters
    weak = {str(w.message).split(" is")[0] for w in caught if w.category is DominanceWarning}
    assert weak == {"relative dominance 2.3", "relative dominance 2"}


# ---------------------------------------------------------------------------
# frozen digests of the probe path's outcomes
# ---------------------------------------------------------------------------

def _digest(records):
    return hashlib.sha256(repr(records).encode()).hexdigest()


def _exact(*values):
    # exact text of every float (or complex part); None for a missing cell
    out = []
    for v in values:
        if v is None:
            out.append(None)
        elif isinstance(v, complex):
            out += [v.real.hex(), v.imag.hex()]
        else:
            out.append(float(v).hex())
    return tuple(out)


# SHA-256 over the 1000 designs of ``_bench_designs(seed=2)``, recorded before
# the probe path was rewritten for speed; any drift in a root, gain or zeta
# of a stage-2 probe or M-curve point changes them. The stage-2 outcomes are
# split by refine, each in design order: 750 plain and 250 refine designs
# (one list of all 1000 records gave 191a8816...)
STAGE2_OUTCOMES_SHA = {
    False: "70c7211baab438cc7fc2bd702e3247cac267de86fc03288ad1a0786a73d559d9",
    True: "be18e47f7ce1103baa07d588887afc4c280aaf31990b77a9d97d2bc5b8b928b9",
}
MCURVE_POINTS_SHA = "8c35f1aa8b950eececfdb7db294cb1420585bddea6480090e850aede5609471d"


@pytest.mark.parametrize("refine", [False, True], ids=["plain", "refine"])
def test_stage2_outcomes_match_frozen_digest(refine):
    records = []
    for plant, target, desired, q_step, refined in _bench_designs(seed=2, count=1000):
        if refined != refine:
            continue
        try:
            report = _tune(plant, target, desired, q_step, refine)
        except TargetUnreachable:
            records.append("TargetUnreachable")
            continue
        records.append(_exact(
            report.chosen_q, *gains_tuple(report.suboptimal_gains),
            report.achieved_zeta, report.achieved_omega_n,
        ))
    assert len(records) == (250 if refine else 750)
    assert _digest(records) == STAGE2_OUTCOMES_SHA[refine]


def test_mcurve_points_match_frozen_digest():
    # the design-sweep benchmark's 61-point sweep over each design's stage-1 gains
    records = []
    for plant, target, _, _, _ in _bench_designs(seed=2, count=1000):
        for pt in mcurve(plant, place_gains(plant, target), 1.3, 0.7, 0.01):
            gains = None if pt.equivalent_gains is None else gains_tuple(pt.equivalent_gains)
            records.append((
                _exact(pt.q, *(gains or (None,) * 3), pt.s_zero,
                       pt.dominant_zeta, pt.dominant_omega_n),
                pt.wedge.value, pt.stable,
            ))
    assert len(records) == 61_000
    assert _digest(records) == MCURVE_POINTS_SHA


# ---------------------------------------------------------------------------
# the cost of a probe, by call counts
# ---------------------------------------------------------------------------

def test_walks_read_the_zero_angle_once_and_solve_without_cubic_calls(monkeypatch):
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    w_zeros_counted = counted(fractional_map, "w_zeros")
    for module in (fractional_map, tuner):
        monkeypatch.setattr(module, "w_zeros", w_zeros_counted)
    for owner, name in ((pole_placement, "solve_cubic"), (tuner, "_cubic_roots"), (tuner, "_probe")):
        monkeypatch.setattr(owner, name, counted(owner, name))
    for name in ("__call__", "derivative"):
        monkeypatch.setattr(Cubic, name, counted(Cubic, name))

    two_stage_tune(P1.plant, P1.stage1, desired_zeta=0.93, q_step=0.0002, refine=True)
    assert calls["w_zeros"] == 1
    # at most one cubic per probe: 56 probes, where a walk over every grid
    # order made 492; the public solver serves only the two Riccati packages
    assert calls["_cubic_roots"] <= calls["_probe"] <= 58
    assert calls["solve_cubic"] == 2
    tune_calls = calls.copy()
    points = mcurve(P1.plant, place_gains(P1.plant, P1.stage1), 1.3, 0.7, 0.01)
    assert calls["w_zeros"] == 2
    mapped = sum(p.equivalent_gains is not None for p in points)
    assert mapped > 20
    # one cubic for each point inside the wedge, none for the others
    assert calls["_probe"] - tune_calls["_probe"] == len(points)
    assert calls["_cubic_roots"] - tune_calls["_cubic_roots"] == mapped
    assert calls["solve_cubic"] == 2
    assert calls["__call__"] == calls["derivative"] == 0


# ---------------------------------------------------------------------------
# the probe against the public path
# ---------------------------------------------------------------------------

def _outcome(call):
    # a call's result, or the type and text of what it raised
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def test_probe_reads_what_closed_loop_poles_reads_at_any_scale():
    rng = random.Random(7)

    def magnitude(decades):
        return 10.0 ** rng.uniform(-decades, decades)

    kinds = Counter()
    for _ in range(6000):
        plant = Plant(rng.choice((-1.0, 1.0)) * magnitude(30), magnitude(3), magnitude(30))
        decades = rng.choice((3, 300))
        ki, kd = magnitude(decades), magnitude(decades)
        kp = rng.uniform(-1.9, 1.9) * math.sqrt(ki) * math.sqrt(kd)
        try:
            gains = PidGains(kp, ki, kd)
            phi = w_zeros(gains).phi
        except ValueError:  # kp overflowed, or the zeros are real
            continue
        q = min(2.0, phi / math.pi * rng.uniform(0.9, 2.1))

        probed = _outcome(lambda: tuner._probe(plant, gains, phi, q))
        mapped = _outcome(lambda: equivalent_pid(gains, q))
        if isinstance(mapped, tuple):
            if mapped[0] is OutsideWedge:
                kinds["outside the wedge"] += 1
                assert probed.wedge is not WedgeClass.UNDER_DAMPED
                assert (probed.equivalent_gains, probed.stable) == (None, False)
            else:
                kinds["gains overflow"] += 1
                assert probed == mapped
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DominanceWarning)
            public = _outcome(lambda: closed_loop_poles(plant, mapped))
        coefficients = pole_placement.closed_loop_characteristic(plant, mapped).coefficients()
        rescaled = numerics._rescale_exponent(*coefficients, max(map(abs, coefficients))) != 0
        if isinstance(public, tuple):
            if public[0] is UnstableClosedLoop:
                kinds["unstable"] += 1
                assert (probed.equivalent_gains, probed.stable) == (mapped, False)
            else:
                kinds[public[0].__name__] += 1
                assert probed == public
            continue
        kinds["stable, rescaled" if rescaled else "stable"] += 1
        assert probed.equivalent_gains == mapped and probed.stable
        assert _exact(probed.dominant_zeta, probed.dominant_omega_n) == _exact(
            public.dominant_zeta, public.dominant_omega_n
        )
    assert min(kinds.values()) >= 20 and len(kinds) == 6, kinds
