"""Batch front-end: classification, simulation, kernels and decay reports.

Subcommands: ``classify``, ``simulate``, ``kernel``, ``greens``,
``decay-fit``, ``resonance``, ``reproduce``.  Every output file starts with
``#`` metadata lines carrying the tool version and the sha256 of the chain
configuration, and all numbers are printed with 17 significant digits, so
identical inputs produce byte-identical files.

Exit codes: 0 ok, 2 configuration/usage error, 3 quadrature convergence
failure, 4 acceptance failure.
"""

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, bundled_config
from .chain import config_digest, load_chain, state_from_dict
from .classify import _num as _fmt, classify
from .decay import fit_decay, resonance_witness
from .errors import (ChainConfigError, ConvergenceError, ResonancePoleError,
                     UnsupportedConfigurationError)
from .propagator import gamma_kernel, green_table, kernel_N
from .simulate import evolve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_ACCEPTANCE = 4


def _resolve_chain(arg):
    path = Path(arg)
    if not path.exists():
        try:
            path = Path(str(bundled_config(arg)))
        except FileNotFoundError:
            raise ChainConfigError(f"no such chain config: {arg}") from None
    return load_chain(path), path


def _out_dir(args):
    root = args.out or os.environ.get("CHAINLAB_OUT", "chainlab-out")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _header(args, path, extra=()):
    lines = [f"# chainlab {__version__}",
             f"# config: {path.name}",
             f"# config-sha256: {config_digest(path)}",
             f"# command: {args.command}"]
    lines.extend(f"# {k}: {v}" for k, v in extra)
    return "\n".join(lines) + "\n"


def _write_csv(fp, header, columns, rows):
    fp.write(header)
    fp.write(",".join(columns) + "\n")
    for row in rows:
        fp.write(",".join(_fmt(x) for x in row) + "\n")


def _initial_state(args, chain):
    entries = {}
    for site in args.impulse or []:
        u, v = entries.get(site, (0.0, 0.0))
        entries[site] = (u, v + 1.0)
    for site in args.displace or []:
        u, v = entries.get(site, (0.0, 0.0))
        entries[site] = (u + 1.0, v)
    if not entries and not getattr(args, "zero_state", False):
        entries[0] = (0.0, 1.0)
    entries.setdefault(0, (0.0, 0.0))
    lo = min(min(entries), 0)
    hi = max(max(entries), chain.n_defects)
    return state_from_dict(entries, n_lo=lo, n_hi=hi)


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args):
    chain, path = _resolve_chain(args.chain)
    verdict = classify(chain)
    report = verdict.describe()
    print(report)
    out = _out_dir(args) / f"{path.stem}_verdict.txt"
    out.write_text(_header(args, path) + report + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_simulate(args):
    chain, path = _resolve_chain(args.chain)
    y0 = _initial_state(args, chain)
    alphas = (-args.alpha,)
    snapshots = [float(s) for s in args.snapshot.split(",")] if args.snapshot else []
    traj = evolve(chain, y0, args.T, dt=args.dt, sample_dt=args.sample_dt,
                  alphas=alphas, store_fields=bool(snapshots))
    out = _out_dir(args)
    cols = ["t", "energy", f"norm_minus_alpha_{args.alpha:g}"]
    cols += [f"u{n}" for n in range(chain.n_defects + 1)]
    cols += [f"v{n}" for n in range(chain.n_defects + 1)]
    rows = []
    for i, t in enumerate(traj.t):
        row = [t, traj.energy[i], traj.norms[alphas[0]][i]]
        row.extend(traj.defect_u[:, i])
        row.extend(traj.defect_v[:, i])
        rows.append(row)
    extra = [("T", _fmt(args.T)), ("dt", _fmt(traj.dt)),
             ("alpha", _fmt(args.alpha)),
             ("window", f"{traj.n_lo}..{traj.n_hi}"),
             ("valid-horizon", _fmt(traj.valid_horizon))]
    with open(out / f"{path.stem}_trajectory.csv", "w", encoding="utf-8") as fp:
        _write_csv(fp, _header(args, path, extra), cols, rows)
    for ts in snapshots:
        idx = int(np.argmin(np.abs(traj.t - ts)))
        state = traj.state_at(idx)
        srows = [(n, state.u[n - state.n_lo], state.v[n - state.n_lo])
                 for n in range(state.n_lo, state.n_hi + 1)]
        fname = out / f"{path.stem}_snapshot_t{traj.t[idx]:g}.csv"
        with open(fname, "w", encoding="utf-8") as fp:
            _write_csv(fp, _header(args, path, [("t", _fmt(traj.t[idx]))]),
                       ["n", "u", "v"], srows)
    print(f"trajectory written for {path.stem}: {len(traj.t)} samples, "
          f"window {traj.n_lo}..{traj.n_hi}")
    return EXIT_OK


def cmd_kernel(args):
    chain, path = _resolve_chain(args.chain)
    t = np.arange(0.0, args.T + 0.5 * args.dt_out, args.dt_out)
    out = _out_dir(args)
    if args.kind == "boundary":
        side = chain.bulk_minus if args.side == "minus" else chain.bulk_plus
        series = gamma_kernel(side, args.n, t)
        cols = ["t", f"gamma_{args.n}"]
        rows = list(zip(t, series.values))
        fname = out / f"{path.stem}_gamma.csv"
    else:
        verdict = classify(chain)
        orders = tuple(int(x) for x in args.orders.split(","))
        ker = kernel_N(chain, verdict, t, orders=orders)
        cols = ["t"] + [f"N_{n}{k}_d{j}" for j in orders
                        for n in range(ker.block_size)
                        for k in range(ker.block_size)]
        rows = []
        for i, ti in enumerate(t):
            row = [ti]
            for j in orders:
                for n in range(ker.block_size):
                    for k in range(ker.block_size):
                        row.append(ker.entry(n, k, j)[i])
            rows.append(row)
        fname = out / f"{path.stem}_kernel.csv"
    with open(fname, "w", encoding="utf-8") as fp:
        _write_csv(fp, _header(args, path, [("T", _fmt(args.T)),
                                            ("dt-out", _fmt(args.dt_out))]),
                   cols, rows)
    print(f"kernel series written: {fname.name}")
    return EXIT_OK


def cmd_greens(args):
    chain, path = _resolve_chain(args.chain)
    side = chain.bulk_minus if args.side == "minus" else chain.bulk_plus
    times = [float(s) for s in args.times.split(",")]
    rows = []
    for t in times:
        g00, g01, g10 = green_table(side, t, args.n_max)
        for n in range(args.n_max + 1):
            rows.append((t, n, g00[n], g01[n], g10[n], g00[n]))
    out = _out_dir(args) / f"{path.stem}_greens_{args.side}.csv"
    with open(out, "w", encoding="utf-8") as fp:
        _write_csv(fp, _header(args, path, [("side", args.side)]),
                   ["t", "n", "g00", "g01", "g10", "g11"], rows)
    print(f"green tables written: {out.name}")
    return EXIT_OK


def cmd_decay_fit(args):
    chain, path = _resolve_chain(args.chain)
    y0 = _initial_state(args, chain)
    traj = evolve(chain, y0, args.T, dt=args.dt, sample_dt=args.sample_dt,
                  alphas=(-args.alpha,))
    lo, hi = args.fit_window or (args.T / 10.0, args.T)
    fit = fit_decay(traj.t, traj.norms[-args.alpha], window=(lo, hi),
                    bin_width=math.pi / chain.band_top_max)
    verdict = classify(chain)
    expected = None if verdict.decay_beta is None else -verdict.decay_beta / 2.0
    lines = [f"slope: {_fmt(fit.slope)}",
             f"intercept: {_fmt(fit.intercept)}",
             f"residual: {_fmt(fit.residual)}",
             f"window: {_fmt(lo)} .. {_fmt(hi)}",
             f"envelope_points: {fit.n_points}",
             f"verdict: {verdict.kind}",
             f"expected_slope: {'none' if expected is None else _fmt(expected)}"]
    report = "\n".join(lines)
    print(report)
    out = _out_dir(args)
    (out / f"{path.stem}_decay_fit.txt").write_text(
        _header(args, path) + report + "\n", encoding="utf-8")
    from .decay import envelope_points
    te, ve = envelope_points(traj.t, traj.norms[-args.alpha], (lo, hi),
                             math.pi / chain.band_top_max)
    with open(out / f"{path.stem}_envelope.csv", "w", encoding="utf-8") as fp:
        _write_csv(fp, _header(args, path), ["log_t", "log_envelope"],
                   zip(np.log(te), np.log(ve)))
    return EXIT_OK


def cmd_resonance(args):
    chain, path = _resolve_chain(args.chain)
    verdict = classify(chain)
    if verdict.kind != "resonance":
        raise ChainConfigError(
            f"chain classifies as {verdict.kind}; witness needs a resonance")
    rep = resonance_witness(chain, verdict, horizon=args.T)
    lines = [f"kind: {rep.kind}"]
    lines += [f"prediction/{k}: {_fmt(v)}" for k, v in rep.prediction.items()]
    lines += [f"verification/{k}: {_fmt(v)}" for k, v in rep.verification.items()]
    lines.append(f"passed: {rep.passed}")
    report = "\n".join(lines)
    print(report)
    out = _out_dir(args) / f"{path.stem}_witness.txt"
    out.write_text(_header(args, path) + report + "\n", encoding="utf-8")
    return EXIT_OK if rep.passed else EXIT_ACCEPTANCE


def cmd_reproduce(args):
    from .acceptance import run_battery
    results = run_battery(printer=print)
    out = _out_dir(args) / "acceptance_summary.txt"
    out.write_text(f"# chainlab {__version__}\n"
                   + "\n".join(r.line() for r in results) + "\n",
                   encoding="utf-8")
    return EXIT_OK if all(r.passed for r in results) else EXIT_ACCEPTANCE


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="chainlab",
        description="dispersive decay laboratory for defect harmonic chains")
    p.add_argument("--version", action="version", version=f"chainlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_chain(sp):
        sp.add_argument("--chain", required=True,
                        help="chain config path or bundled config name")
        sp.add_argument("--out", default=None,
                        help="output directory (default $CHAINLAB_OUT or ./chainlab-out)")

    def add_state(sp):
        sp.add_argument("--impulse", type=int, action="append",
                        help="add a unit momentum at this site (default: site 0)")
        sp.add_argument("--displace", type=int, action="append",
                        help="add a unit displacement at this site")
        sp.add_argument("--zero-state", action="store_true",
                        help="start from the zero state instead of the default impulse")

    sp = sub.add_parser("classify", help="decide condition C / C0 / resonance")
    add_chain(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("simulate", help="integrate the chain and record series")
    add_chain(sp)
    add_state(sp)
    sp.add_argument("--T", type=float, default=100.0)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--sample-dt", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=2.0,
                    help="weighted-norm exponent alpha (norm ||.||_{-alpha})")
    sp.add_argument("--snapshot", default=None,
                    help="comma-separated times for full field dumps")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("kernel", help="defect kernel N(t) or boundary kernel")
    add_chain(sp)
    sp.add_argument("--kind", choices=("defect", "boundary"), default="defect")
    sp.add_argument("--n", type=int, default=1, help="boundary kernel index")
    sp.add_argument("--side", choices=("minus", "plus"), default="plus")
    sp.add_argument("--T", type=float, default=100.0)
    sp.add_argument("--dt-out", type=float, default=0.1)
    sp.add_argument("--orders", default="0,1,2")
    sp.set_defaults(fn=cmd_kernel)

    sp = sub.add_parser("greens", help="free Green-function tables")
    add_chain(sp)
    sp.add_argument("--side", choices=("minus", "plus"), default="plus")
    sp.add_argument("--times", default="1.0")
    sp.add_argument("--n-max", type=int, default=32)
    sp.set_defaults(fn=cmd_greens)

    sp = sub.add_parser("decay-fit", help="simulate and fit the norm decay rate")
    add_chain(sp)
    add_state(sp)
    sp.add_argument("--T", type=float, default=400.0)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--sample-dt", type=float, default=0.1)
    sp.add_argument("--alpha", type=float, default=2.0)
    sp.add_argument("--fit-window", type=float, nargs=2, default=None,
                    metavar=("LO", "HI"))
    sp.set_defaults(fn=cmd_decay_fit)

    sp = sub.add_parser("resonance", help="build and verify a resonance witness")
    add_chain(sp)
    sp.add_argument("--T", type=float, default=200.0)
    sp.set_defaults(fn=cmd_resonance)

    sp = sub.add_parser("reproduce", help="run the full acceptance battery")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_reproduce)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ChainConfigError, UnsupportedConfigurationError,
            ResonancePoleError, OSError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"error: convergence: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
