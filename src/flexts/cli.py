"""Command line interface: simulate, fit, evaluate, predict, importance, bench.

All commands are batch operations on CSV/JSON files and are
deterministic given their inputs: float columns are written with
shortest round-trip formatting and bench rows are emitted in sorted
cell order, so reruns produce byte-identical outputs. Errors exit with
a single-line ``flexts: error: ...`` message on stderr and a category
code: 2 for usage, 3 for data problems, 4 for numeric failures.

Every method (flexcode, nnkcde, garch) is fitted by ``_fit``, and each
fitted model records its feature spec (``model.features``: the target
and exogenous columns, lags, rolling statistics) and its ``model.split``,
which ``evaluate``, ``predict`` and ``importance`` rebuild the design and
its blocks from. Each model tabulates through three members: ``row_state``
computes some rows' state once, ``raw_rows`` gives their raw densities on
any response grid, and ``grid()`` is the fit-time grid (the padded
training range at ``grid_size`` points) each method is scored on. So
``evaluate``, ``predict`` and ``bench`` take one path for every method:
``predict`` writes ``estimator.predict_density_batch``, which tabulates
with ``estimator.density_rows``, the one tabulation on a model's grid,
and ``evaluate`` and ``bench`` score the raw rows of their test block
(``_test_block``) with ``estimator.score_rows``, a slice at a time.
"""

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from flexts import baselines, estimator, persistence, scenarios
from flexts.basis import BASIS_KINDS, check_pad, fit_scaler
from flexts.errors import DataError, NumericError
from flexts.evaluation import pinball_loss
from flexts.features import (
    FeatureSpec,
    RollingSpec,
    SeriesTable,
    SplitSpec,
    lag_embed,
    temporal_split,
)
from flexts.regression import BACKENDS

PROG = "flexts"


# ---------------------------------------------------------------------------
# small I/O helpers
# ---------------------------------------------------------------------------


def _fmt_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if v is None:
        return ""
    return str(v)


def write_csv(path, header, rows):
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt_cell(v) for v in row])
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc


def read_series_csv(path, target, exog_names=()):
    """Read a CSV with a header row; parse the named numeric columns."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        wanted = [target, *exog_names]
        for name in wanted:
            if name not in header:
                raise DataError(
                    f"{path}: no column {name!r}; file has {header}"
                )
        idx = {name: header.index(name) for name in wanted}
        cols = {name: [] for name in wanted}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            for name, j in idx.items():
                if j >= len(row):
                    raise DataError(
                        f"{path}: line {line_no}: missing column {name!r}"
                    )
                try:
                    cols[name].append(float(row[j]))
                except ValueError:
                    raise DataError(
                        f"{path}: line {line_no}: column {name!r}: "
                        f"could not parse {row[j]!r} as a number"
                    ) from None
    if not cols[target]:
        raise DataError(f"{path}: no data rows")
    return {name: np.asarray(vals) for name, vals in cols.items()}


def _parse_rolling(specs):
    out = []
    for item in specs or ():
        try:
            stat, window = item.split(":")
            out.append(RollingSpec(stat=stat, window=int(window)))
        except ValueError as exc:
            raise ValueError(
                f"bad rolling spec {item!r}; expected stat:window like mean:3"
            ) from exc
    return out


def _listed(flag, text, read=str):
    """The entries of a comma list flag, each stripped and read by ``read``.

    A list of no values, an empty entry or an entry ``read`` rejects is a
    usage error that names the flag.
    """
    entries = [entry.strip() for entry in text.split(",")]
    if not any(entries):
        raise ValueError(f"{flag} lists no values")
    if not all(entries):
        raise ValueError(f"{flag} has an empty entry in {text!r}")
    try:
        return [read(entry) for entry in entries]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _level(text):
    """A quantile level, inside (0, 1)."""
    return float(estimator.check_taus(float(text))[0])


def _distinct(name, values):
    """``values``, or a usage error naming ``name`` and a value it repeats."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{name} repeats {value!r}")
    return values


def _int_range(text):
    """An integer, or an ascending range like 0-9, as a range of integers."""
    ends = text.split("-", 1) if "-" in text[1:] else (text, text)
    a, b = (int(v) for v in ends)
    if b < a:
        raise ValueError(f"descending range {text!r}")
    return range(a, b + 1)


def _default_seed(value):
    if value is not None:
        return value
    env = os.environ.get("FLEXTS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"FLEXTS_SEED must be an integer, got {env!r}") from None
    return 0


# ---------------------------------------------------------------------------
# a model's series: read and embedded as its feature spec says
# ---------------------------------------------------------------------------


def _read_design(features, path):
    """The series at ``path`` and its design, built as ``features`` says.

    ``features`` is a fitted model's spec, which a model fitted on a
    hand-built design, or by the library's NNKCDE or GARCH fit, lacks.
    """
    if features is None:
        raise DataError("the model records no feature spec (target column and lags)")
    target, exog = features.target, list(features.exog)
    cols = read_series_csv(path, target, exog)
    exog_cols = np.column_stack([cols[name] for name in exog]) if exog else None
    table = SeriesTable(cols[target], exog_cols, exog, target)
    return table, lag_embed(table, features.n_lags, features.rolling,
                            features.exog_contemporaneous)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args):
    seed = _default_seed(args.seed)
    if args.scenario == "jump_diffusion":
        raise ValueError(
            "scenario 'jump_diffusion' (continuous-time) is out of scope; "
            f"available scenarios: {', '.join(scenarios.SCENARIO_NAMES)}"
        )
    spec = scenarios.ScenarioSpec(
        name=args.scenario,
        n=args.n,
        seed=seed,
        burn_in=args.burn_in,
        sigma_nm=args.sigma_nm,
    )
    draw = scenarios.simulate(spec)
    if args.with_jumps:
        if draw.jumps is None:
            raise ValueError(
                f"scenario {args.scenario!r} has no jump indicator column"
            )
        header = ["y", "z_jump"]
        rows = [(y, int(z)) for y, z in zip(draw.y, draw.jumps)]
    else:
        header = ["y"]
        rows = [(y,) for y in draw.y]
    write_csv(args.output, header, rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# fitting and tabulating any method
# ---------------------------------------------------------------------------

def _fit(method, table, design, split, pad, grid_size, grids=None, **config):
    """Fit any method on a design with a temporal split.

    ``pad`` and ``grid_size`` set the response grid. ``grids`` maps a
    hyperparameter name (delta, k, lam; k and h for NNKCDE) to its
    candidates, absent names taking the defaults; ``config`` holds the
    other flexcode FitConfig fields, which the baselines do not read. The
    model records the design's feature spec and ``split``. Returns (model,
    i_selected, hyper, report): the selection as ``bench`` tabulates it
    and the lines ``flexts fit`` prints.
    """
    grids = grids or {}
    tr, va, _ = temporal_split(design.n_rows, split)
    if method == "flexcode":
        config = estimator.FitConfig(pad=pad, grid_size=grid_size, **config)
        hyper_name = BACKENDS[config.backend].hyper_name
        config = replace(config, hyper_grid=grids.get(hyper_name))
        model = estimator.fit(design, split, config)
        hyper = getattr(model.backend, hyper_name)
        report = [
            f"method: flexcode backend={model.backend_kind}",
            f"selected {hyper_name}={hyper} I={model.i_selected}",
            f"validation loss {model.diagnostics['val_loss']:.6f} "
            f"over {model.diagnostics['n_val']} rows",
            "validation loss curve (selected candidate):",
        ]
        report += [
            f"  I={i} loss={loss:.6f} se={se:.6f}"
            for i, (loss, se) in enumerate(zip(model.val_losses, model.val_std_errors))
        ]
        return model, model.i_selected, model.hyper, report
    if method == "nnkcde":
        y_tr = design.y[tr.start : tr.stop]
        scaler = fit_scaler(y_tr, pad=pad)
        model = baselines.nnkcde_fit(
            design.u[tr.start : tr.stop], y_tr, design.u[va.start : va.stop],
            design.y[va.start : va.stop], scaler.lo, scaler.hi,
            k_grid=grids.get("k"), h_grid=grids.get("h"), grid_size=grid_size)
        model = replace(model, features=design.features, split=split)
        return model, model.k, model.h, [
            f"method: nnkcde selected k={model.k} h={model.h!r}"
        ]
    if method == "garch":
        if design.features.rolling or design.features.exog:
            raise ValueError("garch supports lag features only")
        # fit on the series prefix covered by the training rows
        prefix_end = int(design.origin_index[tr.stop - 1]) + 1
        model = baselines.garch_fit(table.response[:prefix_end], design.features.n_lags,
                                    pad, grid_size)
        model = replace(model, features=design.features, split=split)
        return model, "", model.alpha + model.beta, [
            f"method: garch p={model.p} omega={model.omega:.6g} "
            f"alpha={model.alpha:.6g} beta={model.beta:.6g} "
            f"loglik={model.loglik:.6f}"
        ]
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _grid_types(method, backend):
    """The grid flags a fit reads: {the model field each names: its type}."""
    if method == "flexcode":
        model_cls, names = BACKENDS[backend], {BACKENDS[backend].hyper_name}
    elif method == "nnkcde":
        model_cls, names = baselines.NnkcdeModel, {"k", "h"}
    else:  # garch tunes no grid
        return {}
    return {f.name: f.type for f in fields(model_cls) if f.name in names}


def cmd_fit(args):
    # the flexcode flags given; FitConfig's defaults stand in for the others
    flexcode = {name: getattr(args, name) for name in ("basis", "i_max", "backend",
                "refit_final") if getattr(args, name) is not None}
    if args.method != "flexcode" and flexcode:
        flag = "--" + next(iter(flexcode)).replace("_", "-")
        raise ValueError(f"{flag} is a flexcode flag; {args.method} does not read it")
    grid_types = _grid_types(args.method,
                             flexcode.get("backend", estimator.FitConfig.backend))
    grids = {}
    for name in ("delta", "k", "lam", "h"):
        if getattr(args, name) is None:
            continue
        if name not in grid_types:
            takes = ", ".join(f"--{n}" for n in grid_types) or "none"
            raise ValueError(f"--{name} is not a grid of this fit (its grids: {takes})")
        grids[name] = tuple(_listed(f"--{name}", getattr(args, name), grid_types[name]))
    features = FeatureSpec(args.target, args.lags, _parse_rolling(args.rolling),
                           args.exog or [], args.exog_contemporaneous)
    split = SplitSpec.from_list(_listed("--split", args.split, float))
    table, design = _read_design(features, args.input)
    model, _, _, report = _fit(args.method, table, design, split, args.pad,
                               args.grid_size, grids, **flexcode)
    for line in report:
        print(line)
    persistence.save_model(args.output, args.method, model)
    print(f"model written: {args.output}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _test_block(model, table, design):
    """The covariates, responses and row state of the model's test block."""
    _, _, te = temporal_split(design.n_rows, model.split)
    rows = slice(te.start, te.stop)
    u_te = design.u[rows]
    return u_te, design.y[rows], model.row_state(u_te, table.response, rows)


def _truth(scenario, u_rows, grid_y, sigma_nm):
    """The scenario's true densities of rows lo..hi of u_rows, for score_rows."""
    return lambda lo, hi: scenarios.true_rows(scenario, u_rows[lo:hi], grid_y, sigma_nm)


DEFAULT_TAUS = [i / 100 for i in range(5, 100, 5)]


def cmd_evaluate(args):
    _distinct("--model", args.model)
    taus = (list(DEFAULT_TAUS) if args.quantiles is None else
            _distinct("--quantiles", _listed("--quantiles", args.quantiles, _level)))
    header = ["model", "method", "n_test", "n_outside_grid", "cde_loss",
              "cde_loss_se"]
    if args.oracle_scenario:
        header += ["oracle_cde_loss", "oracle_cde_loss_se"]
    header += [f"pinball_{tau:g}" for tau in taus]
    if args.log_pinball:
        header += [f"log_pinball_{tau:g}" for tau in taus]
    out_rows = []
    for path in args.model:
        method, model, _ = persistence.load_model(path)
        table, design = _read_design(model.features, args.input)
        u_te, y_te, state = _test_block(model, table, design)
        grid_y = model.grid()
        truth = None
        if args.oracle_scenario:
            if model.features.n_lags < scenarios.ORDER:
                raise ValueError(
                    f"oracle loss needs at least {scenarios.ORDER} lagged "
                    "covariates in the design"
                )
            truth = _truth(args.oracle_scenario, u_te, grid_y, args.sigma_nm)
        scores = estimator.score_rows(grid_y, model.raw_rows(state, grid_y), y_te,
                                      truth, taus)
        rep = scores.cde
        row = [path, method, rep.n_eval, rep.n_outside, rep.loss, rep.std_error]
        if truth is not None:
            row += [scores.oracle.loss, scores.oracle.std_error]
        qmat = scores.quantiles
        pinballs = [pinball_loss(qmat[:, j], y_te, tau)
                    for j, tau in enumerate(taus)]
        row += pinballs
        if args.log_pinball:
            row += [float(np.log(v)) if v > 0 else "" for v in pinballs]
        out_rows.append(row)
    write_csv(args.output, header, out_rows)
    print(f"wrote {len(out_rows)} method rows to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def _resolve_row(design, row):
    resolved = row if row >= 0 else design.n_rows + row
    if not 0 <= resolved < design.n_rows:
        raise DataError(f"row {row} outside the {design.n_rows} design rows")
    return resolved


def cmd_predict(args):
    _, model, _ = persistence.load_model(args.model)
    taus = (None if args.taus is None
            else _distinct("--taus", _listed("--taus", args.taus, _level)))
    if args.row is not None and args.input is None:
        raise ValueError("--row selects a row of --input, which is not given")

    series = rows = None
    if args.u is not None:
        u = np.array(_listed("--u", args.u, float))
        label = "explicit covariates"
    else:
        table, design = _read_design(model.features, args.input)
        series = table.response
        if args.row is None:
            u = design.next_u
            if u is None:
                raise DataError(
                    "contemporaneous exogenous covariates are unobserved at the "
                    "forecast step; refit with lagged timing to forecast"
                )
            label = "one step past the series end"
        else:
            row = _resolve_row(design, args.row)
            rows = slice(row, row + 1)
            u = design.u[rows]
            label = f"design row {row}"

    batch = estimator.predict_density_batch(model, u, series, rows)
    if taus is not None:
        q = estimator.quantiles_from_grid_density(batch.grid_y, batch.density[0], taus)
        write_csv(args.output, ["tau", "quantile"], list(zip(taus, q)))
    else:  # the density before clipping and renormalization is a third column
        write_csv(args.output, ["y", "density", "raw_density"],
                  list(zip(batch.grid_y, batch.density[0], batch.raw_density[0])))
        if batch.degenerate[0]:
            print("warning: clipped density had no mass; wrote uniform")
    print(f"prediction for {label} written: {args.output}")
    return 0


# ---------------------------------------------------------------------------
# importance
# ---------------------------------------------------------------------------


def cmd_importance(args):
    method, model, _ = persistence.load_model(args.model)
    if method != "flexcode":
        raise ValueError(f"importance is defined for flexcode models, not {method}")
    seed = _default_seed(args.seed)
    u_val = y_val = None
    if not model.backend.scores_from_coefficients:
        if not args.input:
            raise ValueError(
                f"{model.backend_kind} importance is permutation-based; "
                "pass --input with the fitting data"
            )
        _, design = _read_design(model.features, args.input)
        _, va, _ = temporal_split(design.n_rows, model.split)
        u_val, y_val = design.u[va.start : va.stop], design.y[va.start : va.stop]
    scores = estimator.importance(model, u_val, y_val, args.n_permutations, seed)
    order = np.argsort(-scores, kind="stable")
    rows = [(model.feature_names[j], scores[j]) for j in order]
    write_csv(args.output, ["feature", "score"], rows)
    for name, score in rows:
        print(f"{name}: {score:.6g}")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

# points of the finer grid a bench cell scores oracle losses on
ORACLE_GRID_SIZE = 2001


@dataclass(frozen=True)
class BenchConfig:
    """Bench settings: the keys a --config JSON object may hold, typed, with defaults.

    Building one checks the split, the names and the numeric settings by
    the rules of what reads them, so a bad value fails before any cell
    runs: each size, seed, the burn-in and sigma_nm as a ScenarioSpec,
    each lag count as a FeatureSpec, i_max and grid_size as a FitConfig.
    Each of the lists a cell is drawn from holds at least one value, none
    repeated, so no cell runs twice.
    """

    scenarios: list[str] = field(default_factory=lambda: ["ar"])
    sizes: list[int] = field(default_factory=lambda: [1000])
    methods: list[str] = field(default_factory=lambda: ["flexcode"])
    seeds: list[int] = field(default_factory=lambda: [0])
    lags: list[int] = field(default_factory=lambda: [3])
    backend: str = "nw"
    basis: str = "cosine"
    i_max: int = 30
    grid_size: int = 1001
    pad: float = 0.05
    split: list[float] = field(default_factory=lambda: [0.7, 0.1, 0.2])
    burn_in: int = 200
    sigma_nm: float = 0.5
    oracle: bool = True
    output: str = "bench_results.csv"

    def __post_init__(self):
        for name in ("scenarios", "sizes", "methods", "seeds", "lags"):
            if not _distinct(repr(name), getattr(self, name)):
                raise ValueError(f"{name!r} holds no values")
        SplitSpec.from_list(self.split)
        # burn_in and sigma_nm, then each size and seed, by a cell's series rules
        spec = scenarios.ScenarioSpec("ar", 100, 0, self.burn_in, self.sigma_nm)
        for n in self.sizes:
            replace(spec, n=n)
        for seed in self.seeds:
            replace(spec, seed=seed)
        for n_lags in self.lags:
            FeatureSpec("y", n_lags)
        check_pad(self.pad)
        # i_max and grid_size by the fit's own rules
        estimator.FitConfig(i_max=self.i_max, grid_size=self.grid_size)
        for name, values, known in [
            ("scenarios", self.scenarios, scenarios.SCENARIO_NAMES),
            ("methods", self.methods, tuple(persistence.METHODS)),
            ("backend", [self.backend], tuple(BACKENDS)),
            ("basis", [self.basis], BASIS_KINDS),
        ]:
            for value in values:
                if value not in known:
                    raise ValueError(f"{name!r} holds unknown value {value!r}; "
                                     f"expected one of {known}")


@dataclass(frozen=True)
class BenchCell:
    scenario: str
    n: int
    method: str
    lags: int
    seed: int


def run_bench_cell(cell, **settings):
    """Run one (scenario, n, method, lags, seed) cell; returns a metrics dict.

    ``settings`` are BenchConfig fields; absent ones take its defaults.
    The three methods share the response grid derived from the training
    rows so their losses are commensurable. Oracle integrated squared
    error is computed on a finer grid when the scenario truth is known
    and the design keeps every lag the scenario's law reads.
    """
    cfg = BenchConfig(**settings)
    y = scenarios.generate(
        cell.scenario, cell.n, cell.seed, burn_in=cfg.burn_in, sigma_nm=cfg.sigma_nm
    )
    table = SeriesTable(y)
    design = lag_embed(table, cell.lags)
    model, i_selected, hyper, _ = _fit(
        cell.method, table, design, SplitSpec.from_list(cfg.split), cfg.pad,
        cfg.grid_size, backend=cfg.backend, basis=cfg.basis, i_max=cfg.i_max,
    )
    u_te, y_te, state = _test_block(model, table, design)
    grid_y = model.grid()
    rep = estimator.score_rows(grid_y, model.raw_rows(state, grid_y), y_te).cde
    result = {
        **asdict(cell),
        "status": "ok",
        "cde_loss": rep.loss,
        "cde_loss_se": rep.std_error,
        "oracle_cde_loss": "",
        "oracle_cde_loss_se": "",
        "i_selected": i_selected,
        "hyper": hyper,
        "n_test": rep.n_eval,
    }
    if cfg.oracle and cell.lags >= scenarios.ORDER:
        # every method's grid spans the training scaler's range exactly
        fine_grid = np.linspace(grid_y[0], grid_y[-1], ORACLE_GRID_SIZE)
        orep = estimator.score_rows(
            fine_grid, model.raw_rows(state, fine_grid),
            truth=_truth(cell.scenario, u_te, fine_grid, cfg.sigma_nm)).oracle
        result["oracle_cde_loss"] = orep.loss
        result["oracle_cde_loss_se"] = orep.std_error
    return result


BENCH_COLUMNS = [f.name for f in fields(BenchCell)] + [
    "status",
    "cde_loss",
    "cde_loss_se",
    "oracle_cde_loss",
    "oracle_cde_loss_se",
    "i_selected",
    "hyper",
    "n_test",
]


def cmd_bench(args):
    settings = {}
    if args.config:
        try:
            with open(args.config) as fh:
                settings = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot open {args.config}: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.config}: invalid JSON: {exc}") from exc
        if not isinstance(settings, dict):
            raise ValueError(f"bench config must be a JSON object, got {settings!r}")
        unknown = set(settings) - {f.name for f in fields(BenchConfig)}
        if unknown:
            raise ValueError(f"unknown bench config keys: {sorted(unknown)}")

    def listed(key, read=str):
        text = getattr(args, key)
        return None if text is None else _listed(f"--{key}", text, read)

    def int_listed(key):
        ranges = listed(key, _int_range)
        return None if ranges is None else list(itertools.chain.from_iterable(ranges))

    flags = {
        "scenarios": listed("scenarios"),
        "sizes": int_listed("sizes"),
        "methods": listed("methods"),
        "seeds": int_listed("seeds"),
        "lags": int_listed("lags"),
        "backend": args.backend,
        "output": args.output,
    }
    settings.update((key, value) for key, value in flags.items() if value)
    try:
        cfg = persistence.decode(BenchConfig, settings)
    except ValueError as exc:
        raise ValueError(f"bench config {exc}") from None

    cells = [
        BenchCell(scenario=s, n=n, method=m, lags=p, seed=sd)
        for s, n, m, p, sd in itertools.product(
            cfg.scenarios, cfg.sizes, cfg.methods, cfg.lags, cfg.seeds
        )
    ]
    cells.sort(key=lambda c: (c.scenario, c.n, c.method, c.lags, c.seed))

    rows = []
    n_failed = 0
    for cell in cells:
        try:
            result = run_bench_cell(cell, **asdict(cfg))
        except (DataError, NumericError, ValueError) as exc:
            n_failed += 1
            result = {**dict.fromkeys(BENCH_COLUMNS, ""), **asdict(cell),
                      "status": f"error: {exc}"}
        rows.append([result[col] for col in BENCH_COLUMNS])
        print(
            f"[{len(rows)}/{len(cells)}] {cell.scenario} n={cell.n} "
            f"{cell.method} p={cell.lags} seed={cell.seed}: {result['status']}"
        )
    write_csv(cfg.output, BENCH_COLUMNS, rows)
    print(f"wrote {len(rows)} cells to {cfg.output} ({n_failed} failed)")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Conditional density estimation for stationary time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a scenario series as CSV")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--burn-in", type=int, default=200)
    p_sim.add_argument("--sigma-nm", type=float, default=0.5)
    p_sim.add_argument("--with-jumps", action="store_true")
    p_sim.add_argument("-o", "--output", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a model on a CSV series")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--target", default="y")
    p_fit.add_argument(
        "--method", choices=persistence.METHODS, default="flexcode"
    )
    p_fit.add_argument("--lags", type=int, default=3)
    p_fit.add_argument("--rolling", action="append", metavar="STAT:WINDOW")
    p_fit.add_argument("--exog", action="append", metavar="COLUMN")
    p_fit.add_argument("--exog-contemporaneous", action="store_true")
    p_fit.add_argument("--split", default="0.7,0.1,0.2")
    # flexcode flags, None when absent so that a baseline fit can reject them
    p_fit.add_argument("--basis", choices=BASIS_KINDS)
    p_fit.add_argument("--i-max", type=int)
    p_fit.add_argument("--backend", choices=BACKENDS)
    p_fit.add_argument("--refit-final", action="store_true", default=None)
    p_fit.add_argument("--delta", help="comma list of nw radii")
    p_fit.add_argument("--k", help="comma list of neighbor counts")
    p_fit.add_argument("--lam", help="comma list of lasso penalties")
    p_fit.add_argument("--h", help="comma list of nnkcde bandwidths")
    p_fit.add_argument("--grid-size", type=int, default=1001)
    p_fit.add_argument("--pad", type=float, default=0.05)
    p_fit.add_argument("-o", "--output", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("evaluate", help="compare models on test rows")
    p_eval.add_argument("--model", action="append", required=True)
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--quantiles", help="comma list of levels in (0,1)")
    p_eval.add_argument("--log-pinball", action="store_true")
    p_eval.add_argument("--oracle-scenario", choices=scenarios.SCENARIO_NAMES)
    p_eval.add_argument("--sigma-nm", type=float, default=0.5)
    p_eval.add_argument("-o", "--output", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_pred = sub.add_parser("predict", help="density or quantiles for one query")
    p_pred.add_argument("--model", required=True)
    query = p_pred.add_mutually_exclusive_group(required=True)
    query.add_argument("--u", help="comma list of covariate values; write "
                       "--u=-0.5,0.1 when the first is negative, since a "
                       "separate value led by '-' can read as a flag")
    query.add_argument("--input", help="CSV series for one-step-ahead forecasting")
    p_pred.add_argument("--row", type=int, default=None)
    p_pred.add_argument("--taus", help="comma list of quantile levels")
    p_pred.add_argument("-o", "--output", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_imp = sub.add_parser("importance", help="feature importance scores")
    p_imp.add_argument("--model", required=True)
    p_imp.add_argument("--input")
    p_imp.add_argument("--seed", type=int, default=None)
    p_imp.add_argument("--n-permutations", type=int, default=5)
    p_imp.add_argument("-o", "--output", required=True)
    p_imp.set_defaults(func=cmd_importance)

    p_bench = sub.add_parser("bench", help="factorial simulation benchmark")
    p_bench.add_argument("--config", help="JSON file of bench settings")
    p_bench.add_argument("--scenarios")
    p_bench.add_argument("--sizes")
    p_bench.add_argument("--methods")
    p_bench.add_argument("--seeds", help="comma list, ranges like 1-10 allowed")
    p_bench.add_argument("--lags")
    p_bench.add_argument("--backend", choices=BACKENDS)
    p_bench.add_argument("-o", "--output")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"{PROG}: error: data: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"{PROG}: error: numeric: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"{PROG}: error: usage: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
