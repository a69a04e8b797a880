"""Cross-validation of the vertex layer against an independent Fock model.

For free fermions the whole state space has a concrete realization: ordered
monomials of negative modes acting on a vacuum, with the anticommutation
rule ``[psi^a_(m), psi^b_(n)]+ = delta_ab delta_(m+n,-1)``.  This module
implements that model from scratch (no engine code beyond reading out the
atoms of a word) and checks that every n-th product computed by the engine
matches the corresponding mode operator applied in the model.
"""

from fractions import Fraction

from conftest import rng_for
from vacalc import vertex_calc as vx
from vacalc.lie_conformal import uncharged_superfermions
from vacalc.scalar import Scalar, binom, factorial

ALG = uncharged_superfermions(0, 2)
GENS = [g.name for g in ALG.generators]


# -- the model: dict from ordered mode tuples to Fraction ----------------------
#
# A monomial ((g1, n1), ..., (gk, nk)) means psi^{g1}_(n1) ... psi^{gk}_(nk)
# applied to the vacuum, kept sorted; the empty tuple is the vacuum.


def pairing(x, y):
    (g, m), (h, n) = x, y
    return Fraction(1) if g == h and m + n == -1 else Fraction(0)


def add_into(acc, mono, coeff):
    if coeff:
        acc[mono] = acc.get(mono, Fraction(0)) + coeff
        if not acc[mono]:
            del acc[mono]


def canonicalize(seq):
    """Sort an application-ordered operator sequence; returns (sign, tuple)
    or None when two equal odd operators collide."""
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j] < seq[j - 1]:
            # the anticommutator of distinct basis modes with nonzero pairing
            # never appears here: contractions were removed during application
            seq[j], seq[j - 1] = seq[j - 1], seq[j]
            sign = -sign
            j -= 1
    for a, b in zip(seq, seq[1:]):
        if a == b:
            return None
    return sign, tuple(seq)


def apply_raw_mode(g, n, state):
    """Apply the elementary mode psi^g_(n) to a model state."""
    out = {}
    for mono, coeff in state.items():
        # move (g, n) through the monomial: y x = -x y + <y, x>
        stack = [(1, 0, list(mono))]  # (sign, position, operators)
        while stack:
            sgn, pos, ops = stack.pop()
            if pos == len(ops):
                if n <= -1:
                    placed = canonicalize(ops + [(g, n)])
                    if placed is not None:
                        add_into(out, placed[1], coeff * sgn * placed[0])
                continue
            contraction = pairing((g, n), ops[pos])
            if contraction:
                add_into(
                    out,
                    canonicalize(ops[:pos] + ops[pos + 1:])[1],
                    coeff * sgn * contraction
                    * canonicalize(ops[:pos] + ops[pos + 1:])[0],
                )
            stack.append((-sgn, pos + 1, ops))
    return out


def doubled_energy(state):
    """Twice the largest monomial energy: a mode psi_(n) carries -n - 1/2."""
    return max(
        (sum(-2 * n - 1 for (_, n) in mono) for mono in state), default=0
    )


def doubled_weight(atoms):
    """Twice the conformal weight of a word: each atom carries 1/2 + d."""
    return sum(1 + 2 * d for (_, d) in atoms)


def apply_atom_mode(atom, n, state):
    """Mode of a derivative atom: (d^d g)_(n) = (-1)^d C(n, d) d! g_(n-d)."""
    g, d = atom
    coeff = binom(n, d) * Fraction(-1) ** d * factorial(d)
    if not coeff:
        return {}
    return {m: c * coeff for m, c in apply_raw_mode(g, n - d, state).items()}


def apply_word_mode(atoms, n, state):
    """Mode of a right-nested word through the normal-product mode formula:
    :a W:_(n) = sum_(j<=-1) a_(j) W_(n-j-1) + p(a, W) sum_(j>=0) W_(n-j-1) a_(j).

    Both sums truncate exactly: the space has no negative-energy states and a
    weight-D operator at mode m shifts energy by D - m - 1, so x_(m) v = 0
    once m exceeds E(v) + D - 1.
    """
    if not state:
        return {}
    if len(atoms) == 1:
        return apply_atom_mode(atoms[0], n, state)
    head, rest = atoms[0], atoms[1:]
    sign = -1 if len(rest) % 2 == 1 else 1  # all fermion atoms are odd
    out = {}
    # creation side: head_(j) for j <= -1, until rest_(n-j-1) exceeds the
    # energy bound 2m > 2E + 2D - 2
    bound2 = doubled_energy(state) + doubled_weight(rest)
    j = -1
    while 2 * (n - j - 1) <= bound2:
        inner = apply_word_mode(rest, n - j - 1, state)
        if inner:
            for m, c in apply_atom_mode(head, j, inner).items():
                add_into(out, m, c)
        j -= 1
    # annihilation side: head_(j) = +-psi_(j - d) vanishes on the state once
    # j - d is at least the available depth
    depth = max((-n_ for mono in state for (_, n_) in mono), default=0)
    for j in range(0, depth + head[1] + 1):
        inner = apply_atom_mode(head, j, state)
        if inner:
            for m, c in apply_word_mode(rest, n - j - 1, inner).items():
                add_into(out, m, c * sign)
    return out


def apply_element_mode(x, n, state):
    """Mode x_(n) of an engine state with scalar coefficients."""
    out = {}
    for word, coeff in x.words.items():
        for m, c in apply_word_mode(list(word.atoms), n, state).items():
            add_into(out, m, c * Scalar.coerce(coeff).as_rational())
    if not x.vacuum.is_zero() and n == -1:
        for m, c in state.items():
            add_into(out, m, c * x.vacuum.as_rational())
    return out


VACUUM = {(): Fraction(1)}


def to_fock(x):
    """Model state of an engine state: w = :a1 :a2 ...:: becomes
    (a1)_(-1) (a2)_(-1) ... |0>, and the central K becomes its scalar."""
    x = x.folded()
    out = {}
    for word, coeff in x.words.items():
        state = VACUUM
        for atom in reversed(word.atoms):
            state = apply_atom_mode(atom, -1, state)
        for m, c in state.items():
            add_into(out, m, c * Scalar.coerce(coeff).as_rational())
    if not x.vacuum.is_zero():
        add_into(out, (), x.vacuum.as_rational())
    return out


def random_state(rng, max_len=2, max_dpow=2):
    out = vx.zero(ALG)
    while out.is_zero():
        atoms = [
            (rng.choice(GENS), rng.randint(0, max_dpow))
            for _ in range(rng.randint(1, max_len))
        ]
        out = vx.normal_word(ALG, atoms).scale(Fraction(rng.randint(1, 3)))
    return out


def test_word_basis_is_faithful():
    # distinct canonical words map to linearly independent model states
    rng = rng_for("fock-basis")
    seen = {}
    for _ in range(40):
        x = random_state(rng)
        fock = to_fock(x)
        assert (x.is_zero()) == (not fock)
        key = tuple(sorted((m, c) for m, c in fock.items()))
        if key in seen:
            assert seen[key] == x
        else:
            seen[key] = x


def test_translation_matches_model():
    # T corresponds to x -> x_(-2)|0>
    rng = rng_for("fock-translate")
    for _ in range(20):
        x = random_state(rng)
        assert to_fock(x.translate()) == apply_element_mode(x, -2, VACUUM)


def test_nproducts_match_model():
    rng = rng_for("fock-products")
    pool = [random_state(rng) for _ in range(8)]
    pool.append(vx.fermion_conformal_vector(ALG))
    for _ in range(40):
        x = rng.choice(pool)
        y = rng.choice(pool)
        n = rng.randint(-4, 4)
        engine_out = to_fock(vx.nproduct(x, n, y))
        model_out = apply_element_mode(x, n, to_fock(y))
        assert engine_out == model_out, (str(x), n, str(y))


def test_wick_bracket_matches_model():
    rng = rng_for("fock-bracket")
    L = vx.fermion_conformal_vector(ALG)
    pool = [vx.state(ALG, g) for g in GENS] + [L]
    for _ in range(12):
        x = rng.choice(pool)
        y = rng.choice(pool)
        poly = vx.wick_bracket(x, y)
        degree = poly.degree("lambda")
        for j in range(0, degree + 2):
            coeff = poly.coefficient((j,), vx.zero(ALG))
            expected = coeff.scale(factorial(j))
            assert to_fock(expected) == apply_element_mode(x, j, to_fock(y)), (
                str(x), str(y), j,
            )
