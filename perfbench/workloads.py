"""The four benchmark workloads: inputs from a seed, one op, and its check.

Each workload draws its inputs from its own numpy generator keyed by the
seed, so the inputs stay the same when the library's own samplers change.
Each op is checked independently of what the library reports: the target
is recomputed here and ``L(U* A U)`` is re-evaluated with plain numpy from
the unitary the op returned.

The CLI commands of a workload run on fixed documents drawn from
``CLI_SEED`` with ``--seed CLI_SEED``, so ``cli_s`` times the same commands
in every run: descent cost varies by tens of percent from one start or
target to the next, which a handful of commands cannot average out.

The library is reached only through the package object handed to each
workload, and every call looks the function up on its module at call time,
so a traced run sees the calls through the wrappers it installed.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

_UNITARY_TOL = 1e-8
_SEED_SPAN = 1 << 62
CLI_SEED = 0


def image(cs: np.ndarray, a_stack: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``L(U* A U)`` for raw (l, m, n, n) coefficients and an (m, n, n) tuple."""
    x = np.einsum("ba,ibc,cd->iad", u.conj(), a_stack, u)
    return np.einsum("kiab,iba->k", cs, x).real


def centre(cs: np.ndarray, a_stack: np.ndarray) -> np.ndarray:
    """Image of the normalized-trace tuple ``((tr A_i / n) I)_i``."""
    gammas = np.einsum("iaa->i", a_stack).real / a_stack.shape[-1]
    return np.einsum("kiaa->ki", cs).real @ gammas


def is_unitary(u: np.ndarray) -> bool:
    return float(np.linalg.norm(u.conj().T @ u - np.eye(len(u)))) <= _UNITARY_TOL


def hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_map(rng: np.random.Generator, n: int, l: int, m: int) -> np.ndarray:
    """Raw (l, m, n, n) Hermitian coefficients."""
    return np.stack([np.stack([hermitian(rng, n) for _ in range(m)]) for _ in range(l)])


def decode_matrix(rows) -> np.ndarray:
    """A ``[[re, im], ...]`` row-major matrix from a JSON document."""
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def diag_stack(vectors: np.ndarray) -> np.ndarray:
    return np.stack([np.diag(v).astype(complex) for v in vectors])


def map_spec(core, cs: np.ndarray):
    return core.LinearMapSpec(tuple(tuple(row) for row in cs))


def write_doc(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def result_of(text: str) -> dict:
    return json.loads(text)["result"]


class Workload:
    """One op is ``op(i)``; ops are numbered from 0 within a pass.

    ``op`` returns ``(latency_s, ok, info)``: the latency of the library
    call alone, whether the independent check passed, and for descent
    queries ``(restarts_used, restarts_allowed, best_at_cap)``.
    """

    name = ""
    # ops in the fixed-length pass of a traced run
    trace_ops = 0

    def reset(self):
        """Forget per-pass state so every pass does the same work."""

    def cli_commands(self, workdir: Path) -> list:
        """``(argv, check)`` pairs; ``check(stdout)`` is true when correct."""
        return []


class Star(Workload):
    """Star witnesses for random diagonal tuples under random 3-output maps.

    Chain length, and so op cost, jumps with alpha, so ray parameters are
    drawn by stratified sampling: [0.1, 0.9] is cut into ``n_alpha``
    strata of ``per_n`` cells, and instance ``k`` draws one alpha inside
    cell ``3k mod per_n`` of every stratum.  The first instances of a run
    then cover every stratum evenly, whatever the seed, and the mix of
    chain lengths stays the same across seeds.  Groups rotate through n so
    a time-bounded run sees every n equally.
    """

    name = "star"
    TOL = 1e-3

    def __init__(self, lr, seed: int, smoke: bool):
        self.lr = lr
        rng = np.random.default_rng(seed)
        sizes, per_n, n_alpha, self.n_u = ((3,), 1, 2, 2) if smoke else ((3, 4, 5), 8, 3, 3)
        self.trace_ops = 2 * self.n_u if smoke else 36
        instances = {}
        for inst in range(per_n):
            for n in sizes:
                vectors = rng.standard_normal((3, n))
                cs = random_map(rng, n, 3, 3)
                cell = (3 * inst) % per_n
                alphas = [
                    0.1 + 0.8 * (j + (cell + rng.uniform()) / per_n) / n_alpha
                    for j in range(n_alpha)
                ]
                us = [[haar(rng, n) for _ in range(self.n_u)] for _ in alphas]
                instances[inst, n] = (vectors, cs, alphas, us)
        self.groups = []
        for inst in range(per_n):
            for j in range(n_alpha):
                for n in sizes:
                    vectors, cs, alphas, us = instances[inst, n]
                    self.groups.append(
                        {
                            "d": lr.core.DiagonalTuple(vectors),
                            "spec": map_spec(lr.core, cs),
                            "cs": cs,
                            "a": diag_stack(vectors),
                            "alpha": alphas[j],
                            "us": [(lr.core.UnitaryMatrix(u), u) for u in us[j]],
                        }
                    )
        self.reset()

    def reset(self):
        self.chains = {}

    def op(self, i: int):
        gi = (i // self.n_u) % len(self.groups)
        g = self.groups[gi]
        witness = self.lr.witness
        synth = self.chains.get(gi)
        if synth is None:
            synth = self.chains[gi] = witness.star_scaling_chain(
                g["d"], g["spec"], g["alpha"], self.TOL
            )
        u, u_raw = g["us"][i % self.n_u]
        t0 = time.perf_counter()
        sw = witness.star_point_witness(
            g["d"], g["spec"], u, g["alpha"], tol=self.TOL, synth=synth
        )
        latency = time.perf_counter() - t0
        alpha, cs, a = g["alpha"], g["cs"], g["a"]
        target = alpha * image(cs, a, u_raw) + (1.0 - alpha) * centre(cs, a)
        up = np.asarray(sw.witness.uprime.mat)
        ok = is_unitary(up) and float(np.linalg.norm(image(cs, a, up) - target)) <= self.TOL
        return latency, ok, None

    def cli_commands(self, workdir: Path) -> list:
        lr = self.lr
        rng = np.random.default_rng(CLI_SEED)
        vectors, cs = rng.standard_normal((3, 4)), random_map(rng, 4, 3, 3)
        demo = json.loads(Path("demos/witness_demo.json").read_text(encoding="utf-8"))
        demo_tol = 1e-6  # the witness command's default tolerance

        def check_witness(text):
            # the chain's pinch matrices P_1 ... P_k applied to every diagonal
            demo_cs = np.stack(
                [np.stack([decode_matrix(c) for c in row]) for row in demo["l"]["coeffs"]]
            )
            demo_d = np.array(demo["d"]["vectors"], dtype=float)
            chain = np.eye(demo_d.shape[1])
            for step in demo["chain"]["steps"]:
                p = np.eye(demo_d.shape[1])
                s, t, w = step["s"] - 1, step["t"] - 1, step["alpha"]
                p[s, s] = p[t, t] = w
                p[s, t] = p[t, s] = 1.0 - w
                chain = chain @ p
            target = image(demo_cs, diag_stack(demo_d @ chain.T), decode_matrix(demo["u"]))
            up = decode_matrix(result_of(text)["uprime"])
            achieved = image(demo_cs, diag_stack(demo_d), up)
            return is_unitary(up) and float(np.linalg.norm(achieved - target)) <= demo_tol

        samples, alphas = 2, "0.25,0.5,0.75"

        def check_star(text):
            res = result_of(text)
            return (
                res["verdict"] == "pass"
                and res["checked"] == samples * 3
                and res["max_residual"] <= self.TOL
            )

        path = write_doc(
            workdir / "star-check.json",
            {
                "l": lr.jsonio.encode_linear_map(map_spec(lr.core, cs)),
                "d": lr.jsonio.encode_diagonal_tuple(lr.core.DiagonalTuple(vectors)),
            },
        )
        return [
            (["witness", "--in", "demos/witness_demo.json"], check_witness),
            (
                ["star-check", "--in", path, "--n", str(samples), "--alphas", alphas,
                 "--seed", str(CLI_SEED)],
                check_star,
            ),
        ]


class Separation(Workload):
    """Orbit-distance queries on the l=4 counterexample instance.

    Queries alternate between the pinched tuple, whose target image point
    it reaches exactly, and the unpinched tuple, which stays sqrt(1/2) away
    for n >= 3: the minimum of ``hypot(1 - s, s)`` over the reachable mass
    ``s`` in [0, 1].  Without ``target_distance`` every Haar restart runs
    its full descent.
    """

    name = "separation"
    RESTARTS = 4
    PINCHED_TOL = 1e-10
    GAP_TOL = 1e-3
    SEPARATION = math.sqrt(0.5)

    def __init__(self, lr, seed: int, smoke: bool):
        self.lr = lr
        self.base = int(np.random.default_rng(seed).integers(_SEED_SPAN))
        self.trace_ops = 2 if smoke else 24
        self.instances = []
        for n in (3,) if smoke else (3, 4, 5):
            d, dhat, spec, _ = lr.verify.counterexample_instance(n)
            cs = np.asarray(spec.stack())
            pinched = diag_stack(np.asarray(dhat.vectors))
            self.instances.append(
                {
                    "spec": spec,
                    "cs": cs,
                    "tuples": (dhat.to_hermitian(), d.to_hermitian()),
                    "stacks": (pinched, diag_stack(np.asarray(d.vectors))),
                    "target": image(cs, pinched, np.eye(n)),
                }
            )

    def op(self, i: int):
        inst = self.instances[(i // 2) % len(self.instances)]
        pinched = i % 2 == 0
        optimize = self.lr.optimize
        opts = optimize.DescentOptions(restarts=self.RESTARTS, seed=self.base + i)
        tup = inst["tuples"][0 if pinched else 1]
        t0 = time.perf_counter()
        res = optimize.orbit_distance(inst["spec"], tup, inst["target"], opts)
        latency = time.perf_counter() - t0
        u = np.asarray(res.ubest.mat)
        a = inst["stacks"][0 if pinched else 1]
        dist = float(np.linalg.norm(image(inst["cs"], a, u) - inst["target"]))
        if pinched:
            ok = dist <= self.PINCHED_TOL
        else:
            ok = abs(dist - self.SEPARATION) <= self.GAP_TOL
        info = (res.restarts_used, self.RESTARTS, res.iterations == opts.max_iter)
        return latency, ok and is_unitary(u), info

    def cli_commands(self, workdir: Path) -> list:
        def check(text):
            res = result_of(text)
            details = res["details"]
            return (
                res["verdict"] == "pass"
                and details["membership_distance"] <= self.PINCHED_TOL
                and abs(details["separation_distance"] - self.SEPARATION) <= self.GAP_TOL
            )

        argv = ["counterexample", "--n", "3", "--restarts", "8", "--seed", str(CLI_SEED)]
        return [(argv, check)]


class Membership(Workload):
    """Early-stopping membership queries for targets known to be in range.

    Targets are the trace centre or a ray point between it and an orbit
    point, so a distance above the tolerance is a solver failure.  Query
    cost has a long tail that no input property predicts, so the pool is as
    large as a run: with a pool of 1024 the mean op cost already moved by
    several percent from seed to seed.
    """

    name = "membership"
    TOL = 1e-4
    RESTARTS = 8

    def __init__(self, lr, seed: int, smoke: bool):
        self.lr = lr
        rng = np.random.default_rng(seed)
        pool, self.trace_ops = (12, 12) if smoke else (8192, 1024)
        self.queries = [self._query(rng, q, target_distance=0.5 * self.TOL) for q in range(pool)]

    @staticmethod
    def _shape(q: int) -> tuple[int, int, int, bool]:
        """n, l and m of query ``q``, and whether its target is a ray point;
        every fourth target is the centre itself."""
        return (3, 4, 6)[q % 3], (2, 3)[q // 3 % 2], (2, 3)[q // 6 % 2], (q + q // 12) % 4 != 0

    def _query(self, rng, q: int, target_distance=None) -> dict:
        core = self.lr.core
        n, l, m, ray = self._shape(q)
        a = np.stack([hermitian(rng, n) for _ in range(m)])
        cs = random_map(rng, n, l, m)
        y = centre(cs, a)
        if ray:
            alpha = rng.uniform(0.05, 0.95)
            y = alpha * image(cs, a, haar(rng, n)) + (1.0 - alpha) * y
        opts = self.lr.optimize.DescentOptions(
            restarts=self.RESTARTS,
            seed=int(rng.integers(_SEED_SPAN)),
            target_distance=target_distance,
        )
        return {
            "spec": map_spec(core, cs),
            "a": core.HermitianTuple(tuple(a)),
            "cs": cs,
            "stack": a,
            "y": y,
            "opts": opts,
        }

    def op(self, i: int):
        q = self.queries[i % len(self.queries)]
        t0 = time.perf_counter()
        res = self.lr.optimize.orbit_distance(q["spec"], q["a"], q["y"], q["opts"])
        latency = time.perf_counter() - t0
        u = np.asarray(res.ubest.mat)
        dist = float(np.linalg.norm(image(q["cs"], q["stack"], u) - q["y"]))
        info = (res.restarts_used, self.RESTARTS, res.iterations == q["opts"].max_iter)
        return latency, is_unitary(u) and dist <= self.TOL, info

    def cli_commands(self, workdir: Path) -> list:
        jsonio = self.lr.jsonio
        rng = np.random.default_rng(CLI_SEED)
        shapes = [q for q in range(24) if self._shape(q)[3] and self._shape(q)[0] < 6]
        picked = [self._query(rng, q) for q in shapes[:8]]
        commands = []
        for k, q in enumerate(picked):

            def check(text, q=q):
                u = decode_matrix(result_of(text)["ubest"])
                dist = float(np.linalg.norm(image(q["cs"], q["stack"], u) - q["y"]))
                return is_unitary(u) and dist <= self.TOL

            path = write_doc(
                workdir / f"membership-{k}.json",
                {
                    "l": jsonio.encode_linear_map(q["spec"]),
                    "a": jsonio.encode_hermitian_tuple(q["a"]),
                    "y": [float(x) for x in q["y"]],
                },
            )
            argv = ["membership", "--in", path, "--restarts", str(self.RESTARTS),
                    "--tol", repr(self.TOL), "--seed", str(CLI_SEED)]
            commands.append((argv, check))
        return commands


class Cloud(Workload):
    """Orbit point clouds, encoded as CSV and as canonical JSON in turn.

    Every point must be finite and obey ``|L(X)_k| <= sum_i ||C_ki||_F
    ||A_i||_F`` (Cauchy-Schwarz, as conjugation keeps ``||A_i||_F``), and
    the encoded text must decode back to exactly the sampled points.  The
    check knows nothing of how the library seeds each point.
    """

    name = "cloud"
    L, M = 3, 2

    def __init__(self, lr, seed: int, smoke: bool):
        self.lr = lr
        rng = np.random.default_rng(seed)
        self.points, self.cli_points = (8, 20) if smoke else (256, 2000)
        self.trace_ops = 4 if smoke else 128
        self.base = int(rng.integers(_SEED_SPAN))
        self.instances = [
            self._instance(rng, n)
            for _ in range(1 if smoke else 4)
            for n in ((8,) if smoke else (8, 16))
        ]

    def _instance(self, rng, n: int) -> dict:
        a = np.stack([hermitian(rng, n) for _ in range(self.M)])
        cs = random_map(rng, n, self.L, self.M)
        bound = np.linalg.norm(cs, axis=(2, 3)) @ np.linalg.norm(a, axis=(1, 2))
        return {
            "spec": map_spec(self.lr.core, cs),
            "a": self.lr.core.HermitianTuple(tuple(a)),
            "bound": bound * (1 + 1e-9),
        }

    def _valid(self, points: np.ndarray, bound: np.ndarray, count: int) -> bool:
        return (
            points.shape == (count, self.L)
            and bool(np.all(np.isfinite(points)))
            and bool(np.all(np.abs(points) <= bound))
        )

    def op(self, i: int):
        inst = self.instances[i % len(self.instances)]
        seed = self.base + i
        as_csv = i % 2 == 0
        verify, jsonio = self.lr.verify, self.lr.jsonio
        t0 = time.perf_counter()
        cloud = verify.sample_orbit_cloud(inst["spec"], inst["a"], self.points, seed)
        if as_csv:
            text = jsonio.cloud_csv(cloud)
        else:
            config = self.lr.cli.RunConfig(
                "sample", seed=seed, samples=self.points, format="json"
            )
            result = {
                "l": cloud.l,
                "seed": cloud.seed,
                "n_samples": cloud.n_samples,
                "points": [[float(x) for x in row] for row in cloud.points],
            }
            text = jsonio.canonical_json({"config": config.as_payload(), "result": result})
        latency = time.perf_counter() - t0
        points = np.asarray(cloud.points)
        decoded = parse_csv(text) if as_csv else np.array(result_of(text)["points"])
        ok = self._valid(points, inst["bound"], self.points) and np.array_equal(decoded, points)
        return latency, ok, None

    def cli_commands(self, workdir: Path) -> list:
        jsonio = self.lr.jsonio
        inst = self._instance(np.random.default_rng(CLI_SEED), 8)
        path = write_doc(
            workdir / "sample.json",
            {"l": jsonio.encode_linear_map(inst["spec"]), "a": jsonio.encode_hermitian_tuple(inst["a"])},
        )
        count = self.cli_points
        shared = {}

        def check_csv(text):
            shared["csv"] = parse_csv(text)
            return self._valid(shared["csv"], inst["bound"], count)

        def check_json(text):
            points = np.array(result_of(text)["points"])
            return self._valid(points, inst["bound"], count) and np.array_equal(
                points, shared.get("csv")
            )

        argv = ["sample", "--in", path, "--n", str(count), "--seed", str(CLI_SEED)]
        return [
            (argv + ["--format", "csv"], check_csv),
            (argv + ["--format", "json"], check_json),
        ]


def parse_csv(text: str) -> np.ndarray:
    rows = text.splitlines()[1:]
    return np.array([[float(x) for x in row.split(",")] for row in rows])


WORKLOADS = {w.name: w for w in (Star, Separation, Membership, Cloud)}
