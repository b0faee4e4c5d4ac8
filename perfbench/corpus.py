"""Seeded instance corpora for the benchmark.

Each workload is a fixed list of slots.  A slot fixes the make-up of one
document: case, formula parity, prime, and for each index its tower shape
(f, e), its side and whether its algebra is split.  Slot ``k`` of seed
``s`` draws everything else (the algebras' discriminants, the values, the
coefficients, E and the characters) from its own
``random.Random(f"{workload}/{s}/{k}")``.  So a corpus is the same for the
same seed, and all seeds share one make-up; this keeps a corpus's cost from
swinging with the number of indices a seed happens to draw.  Instances come
from ``tests/support.make_instance``; each is dumped with
``document.dump_document`` and followed by its norm-class twin.  The
program only ever sees the JSON text.

    python3 perfbench/corpus.py --workload batch-mixed --seed 0
    python3 perfbench/corpus.py --write-digests

The first prints the digest of one corpus; the second regenerates
``perfbench/digests.json`` for the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0
# Slots of the default seed that every run regenerates and compares with the
# pinned digest, whatever its own seed.
CANARY_SLOTS = 2

NINE_VARIANTS = (
    ("symplectic", 0), ("so_odd", 1), ("so_even", 0), ("twisted_gl_even", 0),
    ("twisted_gl_odd", 1), ("unitary", 0), ("unitary", 1),
    ("bc_unitary", 0), ("bc_unitary", 1),
)


UNITARY = ("unitary", "bc_unitary")
SMALL = ((1, 1), (2, 1), (1, 2))


def _by_case(per_case):
    """All seven cases in equal shares; unitary and bc_unitary alternate
    their formula parity, so all nine variants appear."""
    variants = []
    for case in ("symplectic", "so_odd", "so_even", "twisted_gl_even",
                 "twisted_gl_odd", "unitary", "bc_unitary"):
        parities = [par for c, par in NINE_VARIANTS if c == case]
        variants += [(case, parities[k % len(parities)]) for k in range(per_case)]
    return variants


def _slot(case, parity, p, shapes, sides, split=()):
    """In the unitary cases d is the sum of the tower degrees, so the last
    small tower is swapped between degree 1 and 2 to give d the parity."""
    shapes = list(shapes)
    if case in UNITARY and sum(f * e for f, e in shapes) % 2 != parity:
        shapes[-1] = (1, 2) if shapes[-1] == (1, 1) else (1, 1)
    return {"case": case, "parity": parity, "p": p, "shapes": tuple(shapes),
            "sides": sides, "split": split}


def _sides(n, k):
    """Index 0 is on the minus side; the others alternate with the slot."""
    return "-" + "".join("+" if (k + j) % 2 else "-" for j in range(1, n))


def _slots_batch_mixed():
    out = []
    for k, (case, parity) in enumerate(_by_case(12)):
        n = (1, 2, 3)[(k // 3 + k) % 3]
        sides, split = _sides(n, k), ((1,) if n > 1 and k % 2 else ())
        if case == "twisted_gl_odd":
            # Field indices on both sides, so the cross-index identities run.
            n = max(n, 2)
            sides, split = "-+" + _sides(n, k)[2:], ()
        # A split index shares the minus side with index 0: alone on a side
        # of dimension 2 its discriminant would be a square.
        out.append(_slot(case, parity, (3, 5, 7)[k % 3], (SMALL * 2)[k % 3:k % 3 + n],
                         sides, split))
    return out


def _slots_deep_towers():
    """One index on the degree-4 tower, one on a tower of degree at most 2."""
    out = []
    for k, (case, parity) in enumerate(_by_case(3)):
        # Over E the degree-4 algebra may split, so the small index is also
        # on the minus side; the odd twisted case needs it on the plus side.
        sides = "-+" if case == "twisted_gl_odd" else "--" if case in UNITARY else _sides(2, k)
        out.append(_slot(case, parity, (3, 5)[k % 2], ((2, 2), SMALL[k % 3]), sides))
    return out


def _slots_large_prime_unitary():
    out = []
    variants = (("unitary", 0), ("unitary", 1), ("bc_unitary", 0), ("bc_unitary", 1))
    for p in (101, 151, 199):
        for k in range(8):
            case, parity = variants[k % 4]
            out.append(_slot(case, parity, p, ((1, 1),), "-"))
    return out


WORKLOADS = {
    "batch-mixed": _slots_batch_mixed(),
    "deep-towers": _slots_deep_towers(),
    "large-prime-unitary": _slots_large_prime_unitary(),
}


class _Rejected(Exception):
    """The attempt drew an input outside the workload's make-up."""


def _support():
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import support
    return support


def _tame_character(support, original):
    """``support._mu_character`` scans all q - 1 unit exponents, which takes
    minutes at q = p^2 near p = 200.  Over an unramified E the character
    with angle (k mod 2)/2 on p and unit exponent (p - 1) * t restricts to
    sgn^k for every t, so t is drawn directly and the result is checked
    with ``restricts_to_sgn_power``."""
    def mu(rng, E, k):
        if E.ramified:
            if E.residue_field().q > 50:
                raise _Rejected("ramified E at a large prime")
            return original(rng, E, k)
        p = E.base.p
        chi = support.TameCharacter(E, Fraction(k % 2, 2),
                                    (p - 1) * rng.randrange(p + 1))
        if not chi.restricts_to_sgn_power(k):
            raise RuntimeError(f"tame character {chi} does not restrict to sgn^{k}")
        return chi
    return mu


class _SlotRandom(random.Random):
    """Draws the side of each index from the slot; all else at random."""

    def __init__(self, seed, sides):
        super().__init__(seed)
        self.sides = sides
        self.index = 0

    def choice(self, seq):
        if seq != "-+":
            return super().choice(seq)
        self.index += 1
        return self.sides[self.index - 1]


@contextlib.contextmanager
def _patched(support, slot):
    """Steer ``make_instance`` to the slot's make-up: the tower shape of
    each index in turn, which indices are split, and cheap characters."""
    saved = {name: getattr(support, name) for name in
             ("random_tower", "random_algebra", "_try_instance", "_mu_character")}
    towers = []

    def random_tower(rng, base, shapes=None):
        # A tower drawn beyond the slot's indices belongs to an index that
        # make_instance appends; the attempt is then rejected by its count.
        shape = slot["shapes"][min(len(towers), len(slot["shapes"]) - 1)]
        towers.append(shape)
        return saved["random_tower"](rng, base, shapes=(shape,))

    def random_algebra(rng, tower, split_ratio=None):
        if len(towers) - 1 in slot["split"]:
            return support.split_algebra(tower)
        return support.random_field_algebra(rng, tower)

    def try_instance(rng, *args):
        towers.clear()
        rng.index = 0
        return saved["_try_instance"](rng, *args)

    support.random_tower = random_tower
    support.random_algebra = random_algebra
    support._try_instance = try_instance
    support._mu_character = _tame_character(support, saved["_mu_character"])
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(support, name, value)


def _twin(support, rng, inst):
    """Every c_i (x_i in the twisted cases) times a norm from its algebra,
    and x_D times a square: the factor must not change."""
    twisted = inst.g.case in ("twisted_gl_even", "twisted_gl_odd", "bc_unitary")
    entries = []
    for en in inst.x.entries:
        nrm = support.random_etale_unit(rng, en.algebra).norm()
        if twisted:
            entries.append(support.IndexEntry(en.name, en.side, en.algebra,
                                              en.value * nrm, en.c))
        else:
            entries.append(support.IndexEntry(en.name, en.side, en.algebra,
                                              en.value, en.c * nrm))
    x_d = inst.x.x_D
    if x_d is not None:
        s = support.random_unit(rng, inst.g.F)
        x_d = x_d * s * s
    return support.RegularParam(tuple(entries), x_d)


def generate_slot(workload, seed, k):
    """The document of slot ``k`` and its twin, as canonical JSON text."""
    support = _support()
    from endofactor.document import dump_document
    slot = WORKLOADS[workload][k]
    n = len(slot["shapes"])
    rng = _SlotRandom(f"{workload}/{seed}/{k}", slot["sides"])
    with _patched(support, slot):
        for _ in range(200):
            try:
                inst = support.make_instance(rng, slot["case"], p=slot["p"],
                                             n_indices=(n, n),
                                             force_d_parity=slot["parity"])
            except _Rejected:
                continue
            # make_instance appends a minus-side field index when none was
            # drawn; such an attempt is outside the make-up.
            if len(inst.y.entries) == n:
                break
        else:
            raise RuntimeError(f"{workload}/{seed}/{k}: no instance in the make-up")
    twin_x = _twin(support, rng, inst)
    return [json.dumps(dump_document(inst.g, inst.e, inst.y, x), sort_keys=True)
            for x in (inst.x, twin_x)]


def generate(workload, seed, slots=None):
    """The corpus: a list of document texts, each slot's twin right after it."""
    texts = []
    for k in range(len(WORKLOADS[workload]) if slots is None else slots):
        texts += generate_slot(workload, seed, k)
    return texts


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def pinned(workload):
    return json.loads(DIGESTS.read_text())["workloads"][workload]


def check_canary(workload):
    """Regenerate the default seed's first slots and compare them with the
    pinned digest; a change to the generator or to the program that alters
    the corpus stops the run."""
    want = pinned(workload)["canary_sha256"]
    got = digest(generate(workload, DEFAULT_SEED, CANARY_SLOTS))
    if got != want:
        raise SystemExit(f"corpus of {workload} changed: canary digest {got}, "
                         f"pinned {want}; see perfbench/README.md")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--write-digests", action="store_true",
                    help="regenerate digests.json for the default seed")
    args = ap.parse_args()
    if args.write_digests:
        table = {}
        for name in sorted(WORKLOADS):
            texts = generate(name, DEFAULT_SEED)
            table[name] = {
                "documents": len(texts),
                "sha256": digest(texts),
                "canary_sha256": digest(texts[:2 * CANARY_SLOTS]),
            }
        DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": table},
                                      indent=2, sort_keys=True) + "\n")
        print(DIGESTS.read_text(), end="")
        return
    if args.workload is None:
        ap.error("give --workload or --write-digests")
    texts = generate(args.workload, args.seed)
    print(f"{args.workload} seed {args.seed}: {len(texts)} documents, "
          f"sha256 {digest(texts)}")


if __name__ == "__main__":
    main()
