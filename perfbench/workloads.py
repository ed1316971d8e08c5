"""The four benchmark workloads and the checks on their outputs.

A workload is built once from the seed (set-up), may precompute its
references in ``prepare`` (untimed), and then yields the same jobs for every
round; ``ROUNDS`` is the number of rounds its ``wall_s`` is taken over.
One job is one answer a user asks chainlab for: a chain's trajectory,
kernel, cross-check or verdict.  Its ``run`` is timed; its ``check`` runs
afterwards, outside the timed region, and returns a list of problems (empty
when the output is right).
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: str | None = None


def _seeded_state(cl, rng, sites, u_range, p_range):
    """Initial data with every listed site set, so the support is fixed."""
    u = rng.uniform(*u_range, size=len(sites))
    p = rng.uniform(*p_range, size=len(sites))
    return cl.state_from_dict({int(n): (float(a), float(b)) for n, a, b in zip(sites, u, p)})


def _fresh(chain, round_index):
    """Same chain under a per-round label.

    The kernel memo is keyed by the chain record, so each round asks for a
    kernel no earlier round computed, as a user asking once would.
    """
    return dataclasses.replace(chain, label=f"{chain.label} [round {round_index}]")


def _site_steps(traj):
    """W * round(T / dt) from a returned Trajectory's window and time step."""
    return (traj.n_hi - traj.n_lo + 1) * int(round(traj.t[-1] / traj.dt))


def _round_site_steps(outputs):
    """Site-steps of a round whose job outputs start with a Trajectory."""
    return sum(_site_steps(out[0]) for out in outputs if not isinstance(out, Exception))


def check_energy(energy, rtol=1e-8):
    """Relative energy drift of a default-dt trajectory stays below ``rtol``."""
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    return [] if drift < rtol else [f"energy drift {drift:.3e} >= {rtol:g}"]


def check_block_displacement(exact, simulated, tol=1e-7):
    """Block displacements match the finite-chain normal-mode solution."""
    err = float(np.max(np.abs(exact - simulated)))
    return [] if err <= tol else [f"block displacement vs normal modes {err:.3e} > {tol:g}"]


def check_initial_kernel(data, masses, orders, tol=1e-8):
    """N(0) = 0 and dN/dt(0) = M^-1 for every block entry."""
    problems = []
    if 0 in orders:
        n0 = float(np.max(np.abs(data[orders.index(0)][:, :, 0])))
        if n0 > 1e-12:
            problems.append(f"|N(0)| = {n0:.3e}")
    if 1 in orders:
        err = float(np.max(np.abs(data[orders.index(1)][:, :, 0] - np.diag(1.0 / np.asarray(masses)))))
        if err > tol:
            problems.append(f"|dN/dt(0) - M^-1| = {err:.3e} > {tol:g}")
    return problems


def check_block_response(response, simulated, tol=1e-4):
    """Kernel-route block response matches the simulated block values."""
    err = float(np.max(np.abs(response - simulated)))
    return [] if err < tol else [f"kernel route vs simulation {err:.3e} >= {tol:g}"]


def check_verdict(chain, verdict, expected):
    """Verdict against the inertia count of D on the spectral gaps."""
    kind = verdict.kind if verdict.kind != "resonance" else verdict.resonance_kind
    if kind != expected["kind"]:
        return [f"verdict {kind}, inertia count says {expected['kind']} "
                f"(zeros per gap {expected['zeros']})"]
    if kind == "real_zero" and not ref.is_bracketed_zero(chain, verdict.omega_star):
        return [f"real-zero verdict with omega_star={verdict.omega_star} not a bracketed zero"]
    if kind == "C0" and not any(abs(verdict.c0_witness - e) <= 1e-9 * max(1.0, e)
                                for e in expected["singular_edges"]):
        return [f"C0 witness {verdict.c0_witness} is not a singular band edge"]
    return []


def _uniform_spec(m, gamma, masses, pinnings, couplings):
    """Chain spec with identical unpinned bulk halves (m, gamma)."""
    side = {"mass": m, "coupling": gamma, "pinning": 0.0}
    return {"bulk_minus": side, "bulk_plus": dict(side), "defect_mass": masses,
            "defect_pinning": pinnings, "defect_coupling": couplings}


# ---------------------------------------------------------------------------


class Trajectories:
    """``evolve`` over a horizon of 20 at the default dt, then ``fit_decay``."""

    CHAINS = ("p1_condition_c", "p1_c0_i", "r1_zero_mode")
    HORIZON = 20.0
    ALPHA = -2.0
    ROUNDS = 5

    def __init__(self, cl, seed):
        self.cl = cl
        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for name in self.CHAINS:
            chain = cl.bundled_chain(name)
            sites = np.arange(-2, chain.n_defects + 3)
            y0 = _seeded_state(cl, rng, sites, (-0.2, 0.2), (0.2, 1.0))
            self.inputs.append((name, chain, y0))

    def jobs(self, round_index):
        return [Job(name, self._runner(chain, y0), self._checker(name, chain, y0))
                for name, chain, y0 in self.inputs]

    def _runner(self, chain, y0):
        cl, T = self.cl, self.HORIZON

        def run():
            traj = cl.evolve(chain, y0, T, alphas=(self.ALPHA,))
            fit = cl.fit_decay(traj.t, traj.norms[self.ALPHA], window=(T / 5.0, T),
                               bin_width=math.pi / chain.band_top_max)
            return traj, fit
        return run

    def _checker(self, name, chain, y0):
        T = self.HORIZON

        def check(out):
            traj, fit = out
            problems = check_energy(traj.energy)
            e0 = ref.hamiltonian(chain, list(y0.sites), y0.u, y0.v)
            if abs(traj.energy[0] - e0) > 1e-12 * e0:
                problems.append(f"E(0) = {traj.energy[0]!r}, Hamiltonian of the data {e0!r}")
            if traj.truncated:
                problems.append("window truncated before the horizon")
            slope = ref.envelope_slope(traj.t, traj.norms[self.ALPHA], (T / 5.0, T),
                                       math.pi / chain.band_top_max)
            if not abs(fit.slope - slope) <= 1e-9:
                problems.append(f"fit_decay slope {fit.slope!r}, recomputed {slope!r}")
            exact = ref.finite_chain_block_displacement(
                chain, list(y0.sites), y0.u, y0.v, traj.t, T)
            problems += check_block_displacement(exact, traj.defect_u)
            u0 = traj.defect_u[0]
            if name == "p1_c0_i":
                side = chain.bulk_minus
                exact = ref.homogeneous_block_displacement(
                    side.mass, side.coupling, side.pinning, y0.sites, y0.u, y0.v, traj.t)
                err = float(np.max(np.abs(u0 - exact)))
                if err > 1e-7:
                    problems.append(f"block displacement vs torus integral {err:.3e} > 1e-7")
            if name == "r1_zero_mode":
                limit = ref.zero_mode_limit(chain) * float(np.sum(y0.v))
                early = np.max(np.abs(u0[(traj.t >= T / 4) & (traj.t <= T / 2)] - limit))
                late = np.max(np.abs(u0[traj.t >= 0.75 * T] - limit))
                if not (late < early and late < 0.05 * abs(limit)):
                    problems.append(f"u0 does not approach {limit:.6g}: deviation "
                                    f"{early:.3e} on [T/4, T/2], {late:.3e} on [3T/4, T]")
            return problems
        return check

    site_steps = staticmethod(_round_site_steps)


class Kernels:
    """``kernel_N`` (orders 0, 1, 2) on t = 0, 0.1, ..., 400, plus one
    ``gamma_kernel`` on the same grid."""

    CHAINS = ("p1_condition_c", "p1_c0_i", "p1_c0_ii", "p1_c0_iii", "p2_condition_c",
              "p3_condition_c", "r1_zero_mode", "r1_zero_mode_n1", "n2_uniform_c")
    T_MAX, DT = 400.0, 0.1
    ORDERS = (0, 1, 2)
    SLOPES = {"C": (-1.7, -1.3), "C0": (-0.65, -0.35)}
    SLOPE_WINDOW = (100.0, 400.0)
    ROUNDS = 5

    def __init__(self, cl, seed):
        self.cl = cl
        rng = np.random.default_rng([seed, 2])
        self.t = self.DT * np.arange(int(round(self.T_MAX / self.DT)) + 1)
        unit = {"mass": 1.0, "coupling": 1.0, "pinning": 0.0}
        self.unit = cl.build_chain({"bulk_minus": unit, "bulk_plus": unit,
                                    "defect_mass": [1.0], "defect_pinning": [0.0]},
                                   label="unit")
        chains = [(n, cl.bundled_chain(n)) for n in self.CHAINS] + [("unit", self.unit)]
        self.chains = [chains[i] for i in rng.permutation(len(chains))]
        # small-t sample of the grid for the elevated-line reference
        self.line_idx = np.sort(rng.choice(np.arange(5, 41), size=6, replace=False))
        self.kinds = {}

    def prepare(self):
        """Regime of every chain from the inertia count, for the checks."""
        self.kinds = {name: ref.spectral_count(chain)["kind"] for name, chain in self.chains}

    def jobs(self, round_index):
        jobs = [Job(name, self._runner(_fresh(chain, round_index)), self._checker(name, chain))
                for name, chain in self.chains]
        side = self.unit.bulk_minus
        jobs.append(Job("gamma_1[unit]", lambda: self.cl.gamma_kernel(side, 1, self.t),
                        self._check_gamma))
        return jobs

    def _runner(self, chain):
        cl = self.cl

        def run():
            return cl.kernel_N(chain, cl.classify(chain), self.t, orders=self.ORDERS)
        return run

    def _checker(self, name, chain):
        t = self.t

        def check(ker):
            data = ker.data
            problems = check_initial_kernel(data, chain.defect_mass, list(ker.orders))
            # second derivative against the centred difference of the first;
            # for a signal band-limited to a the difference errs by at most
            # (a dt)^2 / 6 of the amplitude
            d1, d2 = data[1], data[2]
            fd = (d1[:, :, 2:] - d1[:, :, :-2]) / (2.0 * self.DT)
            bound = 0.5 * (chain.band_top_max * self.DT) ** 2 * float(np.max(np.abs(d2)))
            fd_err = float(np.max(np.abs(fd - d2[:, :, 1:-1])))
            if fd_err > bound:
                problems.append(f"d2N/dt2 vs difference of dN/dt {fd_err:.3e} > {bound:.3e}")
            if name == "unit":
                for order, exact in zip(self.ORDERS, ref.unit_chain_kernel(t)):
                    err = float(np.max(np.abs(data[order][0, 0] - exact)))
                    if err > 1e-8:
                        problems.append(f"order {order} vs Bessel closed form {err:.3e} > 1e-8")
            if chain.n_defects == 0:
                line = ref.elevated_line_kernel(chain, t[self.line_idx])
                err = float(np.max(np.abs(data[0][0, 0, self.line_idx] - line)))
                if err > 1e-7:
                    problems.append(f"N(t) vs elevated-line transform {err:.3e} > 1e-7")
            kind = self.kinds[name]
            n00 = data[0][0, 0]
            if kind in self.SLOPES:
                lo, hi = self.SLOPES[kind]
                slope = ref.envelope_slope(t, n00, self.SLOPE_WINDOW,
                                           math.pi / chain.band_top_max)
                if not lo < slope < hi:
                    problems.append(f"{kind} envelope slope {slope:.3f} outside ({lo}, {hi})")
            elif kind == "zero_mode":
                limit = ref.zero_mode_limit(chain)
                dev = np.abs(data[0] - limit)
                early = float(np.max(dev[:, :, (t >= self.T_MAX / 4) & (t <= self.T_MAX / 2)]))
                late = float(np.max(dev[:, :, t >= 0.75 * self.T_MAX]))
                if not (late < 0.75 * early and late < 0.05 * limit):
                    problems.append(f"N(t) does not approach {limit:.6g}: deviation "
                                    f"{early:.3e} on [T/4, T/2], {late:.3e} on [3T/4, T]")
            return problems
        return check

    def _check_gamma(self, series):
        err = float(np.max(np.abs(series.values - ref.unit_gamma(1, self.t))))
        return [] if err <= 1e-10 else [f"Gamma_1 vs 2 J_2(2t)/t {err:.3e} > 1e-10"]


class CrossCheck:
    """Variation-of-constants route against direct simulation on one grid of
    8 001 samples (T = 10, sampled every 1.25e-3, stepped at dt 2.5e-4)."""

    CHAINS = ("p1_condition_c", "p1_c0_ii", "r1_zero_mode")
    HORIZON, DT, SAMPLE_DT = 10.0, 2.5e-4, 1.25e-3
    ROUNDS = 5

    def __init__(self, cl, seed):
        self.cl = cl
        rng = np.random.default_rng([seed, 3])
        self.inputs = []
        for name in self.CHAINS:
            chain = cl.bundled_chain(name)
            sites = np.arange(-2, max(1, chain.n_defects) + 1)
            y0 = _seeded_state(cl, rng, sites, (-0.3, 0.3), (-1.0, 1.0))
            self.inputs.append((name, chain, y0))

    def jobs(self, round_index):
        return [Job(name, self._runner(_fresh(chain, round_index), y0), self._check)
                for name, chain, y0 in self.inputs]

    def _runner(self, chain, y0):
        cl = self.cl

        def run():
            traj = cl.evolve(chain, y0, self.HORIZON, dt=self.DT, sample_dt=self.SAMPLE_DT)
            kernels = cl.kernel_N(chain, cl.classify(chain), traj.t, orders=(0, 1))
            feed_minus, feed_plus = cl.boundary_feeds(chain, y0, traj.t)
            return traj, cl.defect_response(chain, y0, kernels, feed_minus, feed_plus)
        return run

    def _check(self, out):
        traj, response = out
        problems = check_block_response(response, traj.defect_u)
        expected = int(round(self.HORIZON / self.SAMPLE_DT)) + 1
        if len(traj.t) != expected:
            problems.append(f"{len(traj.t)} samples, expected {expected}")
        return problems

    site_steps = staticmethod(_round_site_steps)


class ClassifySweep:
    """``classify`` over seeded random chains, the bundled ones and three
    fixed chains on which ``find_spectral_zero`` is known to fail."""

    PER_SIZE = 150          # random chains per block size N = 0..5
    ROUNDS = 8
    # chains with two zeros in one spectral gap, where the sign-change scan
    # of find_spectral_zero sees none and classify returns omega_star=None
    KNOWN_FAULT = ("find_spectral_zero misses a pair of zeros in one gap "
                   "and returns omega_star=None")
    FAULT_CHAINS = {
        # two zeros, 2.7296 and 2.7334, inside one cell of the 512-point scan
        "reproducer": _uniform_spec(1.0, 1.0, [0.2, 5.0, 0.2], [0.0, 1.0, 0.0], [0.3, 0.3]),
        # two above-band zeros 2.5e-3 apart, drawn by an earlier sweep
        "close pair": _uniform_spec(
            1.1247699442154533, 1.582234140135078,
            [0.4312571581772848, 2.440057619650271, 0.9685386395146347,
             2.1444226061686207, 0.6317998477043905],
            [0.0, 0.16159842672376698, 0.0, 0.48972681775759874, 1.7844925067977744],
            [1.4249048388761865, 0.5204273751262936, 2.0907462284051075, 1.274293144728232]),
        # two zeros, 3.031 and 3.125, above 2a + 1 = 2.98 where the scan of
        # the unbounded gap stops
        "beyond scan end": _uniform_spec(
            1.816011321698504, 0.4458294529142457,
            [0.33043383955497746, 2.4778011586644033, 0.32184590317739137],
            [2.180947249899972, 0.0, 0.0],
            [0.4019597357533891, 2.403898545986215]),
    }
    CLOSE_PAIR = 0.01

    def __init__(self, cl, seed):
        self.cl = cl
        self.rng = np.random.default_rng([seed, 4])
        self.fixed = [(n, cl.bundled_chain(n)) for n in cl.BUNDLED_CHAINS]
        self.fixed += [(n, cl.build_chain(spec, label=n)) for n, spec in self.FAULT_CHAINS.items()]
        self.random = []
        self._expected = {}

    def prepare(self):
        """Draw the random chains and count the zeros of every chain.

        A random chain whose zeros the scan could miss in pairs (see
        ``_meets_scan_fault``) is redrawn: such chains turn up on some seeds
        only (seeds 58, 59 and 94 of 0-119), so counting them would make the
        failed share depend on the seed.  The three fixed fault chains keep
        both ways the scan misses zeros in every run.
        """
        for name, chain in self.fixed:
            self._expected[name] = ref.spectral_count(chain)
        for size in range(6):
            for i in range(self.PER_SIZE):
                while True:
                    spec = _random_spec(self.rng, size, uniform_bulk=size > 0)
                    chain = self.cl.build_chain(spec)
                    expected = ref.spectral_count(chain)
                    if not _meets_scan_fault(chain, expected, self.CLOSE_PAIR):
                        break
                name = f"random N={size} #{i}"
                self.random.append((name, spec, chain))
                self._expected[name] = expected

    def jobs(self, round_index):
        # a random chain's job starts from its constants, as a user's would
        jobs = [Job(name, self._runner_from_spec(spec), self._checker(name, chain))
                for name, spec, chain in self.random]
        jobs += [Job(name, self._runner(chain), self._checker(name, chain),
                     self.KNOWN_FAULT if name in self.FAULT_CHAINS else None)
                 for name, chain in self.fixed]
        return jobs

    def _runner_from_spec(self, spec):
        return lambda: self.cl.classify(self.cl.build_chain(spec))

    def _runner(self, chain):
        return lambda: self.cl.classify(chain)

    def _checker(self, name, chain):
        return lambda verdict: check_verdict(chain, verdict, self._expected[name])


def _meets_scan_fault(chain, expected, close):
    """Whether a gap holds zeros that a sign-change scan can miss in pairs.

    That is two zeros closer than ``close * (1 + lo)``, or zeros of the
    unbounded gap above 2 a_max + 1, where the scan of that gap may end.
    """
    for (lo, hi), n in zip(expected["gaps"], expected["zeros"]):
        if n < 2:
            continue
        if ref.min_zero_spacing(chain, lo, hi, 0.1 * close) < close * (1.0 + lo):
            return True
        if math.isinf(hi) and ref.zeros_above(chain, 2.0 * lo + 1.0) > 0:
            return True
    return False


def _random_spec(rng, size, uniform_bulk):
    def side():
        return {"mass": float(rng.uniform(0.5, 2.0)),
                "coupling": float(rng.uniform(0.4, 2.0)),
                "pinning": float(rng.choice([0.0, rng.uniform(0.1, 2.0)]))}

    minus = side()
    return {"bulk_minus": minus,
            "bulk_plus": dict(minus) if uniform_bulk else side(),
            "defect_mass": [float(rng.uniform(0.3, 3.0)) for _ in range(size + 1)],
            "defect_pinning": [float(rng.choice([0.0, rng.uniform(0.1, 3.0)]))
                               for _ in range(size + 1)],
            "defect_coupling": [float(rng.uniform(0.4, 2.5)) for _ in range(size)]}


WORKLOADS = {"trajectories": Trajectories, "kernels": Kernels,
             "cross_check": CrossCheck, "classify_sweep": ClassifySweep}
