"""The three benchmark workloads: inputs made from a seed, the timed
operations, and the answer checks that run after all timing is done.

Inputs are built with the benchmark's own partition helpers, so generating
them neither depends on nor warms any cache inside ``hookkron``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

# full size, and the tiny size the benchmark's own tests run
VERIFY_DEGREES = {False: (8, 9), True: (4, 5)}
DECOMPOSE_DEGREES = {False: (14, 15, 16), True: (7, 8)}
DECOMPOSE_PER_DEGREE = {False: 8, True: 2}
# drawn once with a fixed seed; the run seed only orders it (see README.md)
DECOMPOSE_PANEL_SEED = 20150707
BIJECTION_DEGREES = {False: (11, 12, 13), True: (6, 7)}
BIJECTION_OPS = {False: 1000, True: 12}
ORACLE_CAP = 16


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of ``n`` in reverse lexicographic order."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        out.extend((first,) + rest for rest in partitions(n - first, first))
    return out


def corners(p: tuple[int, ...]) -> list[int]:
    """Rows whose last cell can be removed."""
    return [i for i in range(len(p)) if i == len(p) - 1 or p[i] > p[i + 1]]


def cocorners(p: tuple[int, ...]) -> list[int]:
    """Rows (possibly one past the end) where a cell can be added."""
    return [i for i in range(len(p) + 1) if i == 0 or i == len(p) or p[i] < p[i - 1]]


def fmt(p: tuple[int, ...]) -> str:
    return ",".join(map(str, p)) if p else "0"


def digest(parts) -> str:
    """sha256 over the parts, strings by their UTF-8 bytes, others by repr."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``hookkron.cli.main`` with stdout captured."""
    from hookkron import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- verify-sweep -----------------------------------------------------------


class VerifySweep:
    """``hookkron verify --n 9 --n-min 8 --cache FILE`` as one operation."""

    name = "verify-sweep"

    def __init__(self, seed: int, cache: str, tiny: bool = False):
        # the sweep is exhaustive, so the seed selects nothing
        self.ops = [("verify", *VERIFY_DEGREES[tiny])]
        self.cache = cache

    def run(self, op) -> tuple[list, dict]:
        """The parts of the answer digest, and the answer."""
        _, n_min, n_max = op
        code, out = run_cli(
            ["verify", "--n", str(n_max), "--n-min", str(n_min), "--cache", self.cache]
        )
        return [code, out], {"code": code, "stdout": out}

    @staticmethod
    def check(op, answer) -> tuple[list[str], int, int, int]:
        """Failures, checks made, and Σph, Σpw; the sweep returns no counts,
        so Σpw is the oracle's exterior total and Σph is not reported."""
        from hookkron import oracle

        _, n_min, n_max = op
        # per ordered pair: n hook checks, n + 1 exterior and n + 1 LR checks;
        # 38684 for degrees 8 and 9
        checks = sum(len(partitions(n)) ** 2 * (3 * n + 2) for n in range(n_min, n_max + 1))
        failures = []
        if answer["code"] != 0:
            failures.append(f"verify exited {answer['code']}")
        if answer["stdout"] != f"checks: {checks}, all pass\n":
            failures.append(f"verify printed {answer['stdout'][-200:]!r}")
        total_pw = 0
        for n in range(n_min, n_max + 1):
            for lam in partitions(n):
                for mu in partitions(n):
                    for m in range(n + 1):
                        total_pw += oracle.exterior_multiplicity(lam, mu, m)
        return failures, checks, 0, total_pw


# -- decompose-large --------------------------------------------------------


class DecomposeLarge:
    """``hookkron decompose --lambda L --m M --format json`` per operation."""

    name = "decompose-large"

    def __init__(self, seed: int, cache: str | None = None, tiny: bool = False):
        panel = random.Random(DECOMPOSE_PANEL_SEED)
        ops = []
        for n in DECOMPOSE_DEGREES[tiny]:
            lams = partitions(n)
            chosen: set = set()
            while len(chosen) < DECOMPOSE_PER_DEGREE[tiny]:
                chosen.add((panel.choice(lams), panel.randint(1, n - 2)))
            ops.extend(("decompose", lam, m) for lam, m in sorted(chosen, reverse=True))
        random.Random(f"{self.name}:{seed}").shuffle(ops)
        self.ops = ops

    def run(self, op) -> tuple[list, dict]:
        _, lam, m = op
        code, out = run_cli(["decompose", "--lambda", fmt(lam), "--m", str(m), "--format", "json"])
        return [code, out], {"code": code, "stdout": out}

    @staticmethod
    def check(op, answer) -> tuple[list[str], int, int, int]:
        """Failures, oracle checks made, and the answer's Σph and Σpw."""
        from hookkron import oracle
        from hookkron.shapes import hook_partition

        _, lam, m = op
        n = sum(lam)
        where = f"decompose {fmt(lam)} m={m}"
        if answer["code"] != 0:
            return [f"{where}: exit code {answer['code']}"], 0, 0, 0
        try:
            table = json.loads(answer["stdout"])
            rows = {tuple(row["mu"]): row for row in table["rows"]}
        except (ValueError, KeyError, TypeError) as exc:
            return [f"{where}: unreadable output ({exc})"], 0, 0, 0
        failures = []
        if table.get("lambda") != list(lam) or table.get("m") != m:
            failures.append(f"{where}: header {table.get('lambda')} m={table.get('m')}")
        order = [tuple(row["mu"]) for row in table["rows"]]
        if order != [mu for mu in partitions(n) if mu in rows]:
            failures.append(f"{where}: rows out of order")
        hook = hook_partition(n, m)
        checks = total_ph = total_pw = 0
        for mu in partitions(n):
            ph = oracle.kronecker(lam, hook, mu, cap=ORACLE_CAP)
            pw = oracle.exterior_multiplicity(lam, mu, m, cap=ORACLE_CAP)
            checks += 2
            row = rows.get(mu)
            if row is None:
                if pw:
                    failures.append(f"{where}: row {fmt(mu)} missing (pw={pw})")
                continue
            if not pw:
                failures.append(f"{where}: zero row {fmt(mu)} not omitted")
            if (row.get("ph"), row.get("pw")) != (ph, pw):
                failures.append(
                    f"{where}: row {fmt(mu)} has ph={row.get('ph')} pw={row.get('pw')}, "
                    f"oracle {ph}, {pw}"
                )
            by_zeta = row.get("by_zeta", [])
            if sum(z.get("ph", 0) for z in by_zeta) != row.get("ph") or sum(
                z.get("pw", 0) for z in by_zeta
            ) != row.get("pw"):
                failures.append(f"{where}: row {fmt(mu)} by_zeta does not sum to its totals")
            total_ph += row.get("ph") or 0
            total_pw += row.get("pw") or 0
        return failures, checks, total_ph, total_pw


# -- pictures-bijection -----------------------------------------------------


def _move_cells(rng: random.Random, lam: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Remove ``k`` random corner cells, then add ``k`` cells at random."""
    parts = list(lam)
    for _ in range(k):
        i = rng.choice(corners(tuple(parts)))
        parts[i] -= 1
        if parts[i] == 0:
            parts.pop()
    for _ in range(k):
        i = rng.choice(cocorners(tuple(parts)))
        if i == len(parts):
            parts.append(1)
        else:
            parts[i] += 1
    return tuple(parts)


class PicturesBijection:
    """Enumerate ``pw_m_set``, serialise every picture, and round-trip each
    one through the E/F bijection, per operation."""

    name = "pictures-bijection"

    def __init__(self, seed: int, cache: str | None = None, tiny: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        degrees = BIJECTION_DEGREES[tiny]
        shapes = {n: [p for p in partitions(n) if len(p) >= 3 and p[0] >= 3] for n in degrees}
        ops = []
        for _ in range(BIJECTION_OPS[tiny]):
            n = rng.choice(degrees)
            lam = rng.choice(shapes[n])
            m = rng.randint(-(-n // 3), 2 * n // 3)
            mu = _move_cells(rng, lam, rng.randint(0, m))
            ops.append(("bijection", lam, mu, m))
        self.ops = ops

    def run(self, op) -> tuple[list, dict]:
        from hookkron import hook_rule, pictures

        _, lam, mu, m = op
        tps = hook_rule.pw_m_set(lam, mu, m)
        lines = [
            json.dumps(pictures.picture_to_json(tp.picture), separators=(",", ":"))
            for tp in tps
        ]
        ph = not_one = broken = 0
        for tp in tps:
            cocorner = hook_rule.balanced_cocorner(tp) is not None
            corner = hook_rule.balanced_corner(tp) is not None
            if cocorner == corner:
                not_one += 1
            elif cocorner:
                ph += 1
                broken += hook_rule.step_F(hook_rule.step_E(tp)) != tp
            else:
                broken += hook_rule.step_E(hook_rule.step_F(tp)) != tp
        answer = {"ph": ph, "pw": len(tps), "not_one": not_one, "broken": broken}
        lines.append(sorted(answer.items()))
        return lines, answer

    @staticmethod
    def check(op, answer) -> tuple[list[str], int, int, int]:
        """Failures, checks made, and the answer's Σph and Σpw."""
        from hookkron import oracle
        from hookkron.shapes import hook_partition

        _, lam, mu, m = op
        n = sum(lam)
        where = f"pictures {fmt(lam)} / {fmt(mu)} m={m}"
        ph = oracle.kronecker(lam, hook_partition(n, m), mu, cap=ORACLE_CAP)
        pw = oracle.exterior_multiplicity(lam, mu, m, cap=ORACLE_CAP)
        failures = []
        if (answer["ph"], answer["pw"]) != (ph, pw):
            failures.append(f"{where}: ph={answer['ph']} pw={answer['pw']}, oracle {ph}, {pw}")
        if answer["not_one"]:
            failures.append(f"{where}: {answer['not_one']} pictures without one balanced cell")
        if answer["broken"]:
            failures.append(f"{where}: {answer['broken']} E/F round trips broken")
        return failures, 2 + 2 * answer["pw"], answer["ph"], answer["pw"]


WORKLOADS = {
    VerifySweep.name: VerifySweep,
    DecomposeLarge.name: DecomposeLarge,
    PicturesBijection.name: PicturesBijection,
}

