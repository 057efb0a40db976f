"""Surface group presentations, monodromies, and twisted fibered invariants.

Words over a generating set are tuples of signed, 1-based generator indices:
``(1, -2)`` is ``g1 * g2^{-1}``.  All exported operations keep words freely
reduced.  The central objects are:

* :class:`SurfacePresentation` -- one-relator (closed) or free (bounded)
  surface group presentations;
* :class:`GeneratorEndomorphism` -- a monodromy: an automorphism given by
  generator images and an inverse witness, which invert each other on
  whole words and, for a closed surface, preserve the relator up to
  conjugacy, both checked when it is built from outside words; a product
  of checked factors is not checked again;
* :func:`mapping_torus` -- the associated fibered-group presentation with a
  stable letter and its distinguished degree class: one canonical
  presentation per monodromy, which the monodromy keeps, so the CLI, the
  cellular model and the three-dimensional model read one object;
* :class:`FiniteRepresentation` -- exact matrix representations with a
  finiteness certificate by closure enumeration, which also lists the
  inverse of each generator image;
* :func:`twisted_alexander` / :func:`twisted_torsion` -- module orders of the
  twisted chain complex in degrees 0..3 via free differential calculus, and
  the alternating-product torsion class built from them.

Every fibered invariant is read from one twisted complex per (presentation,
representation), which the representation keeps once it has certified the
presentation: the presentation-complex boundaries, the three-dimensional
model (:func:`mapping_torus_boundaries`), the orders Delta_0..Delta_3 and,
for module `cellular`, each flow map's matrices and zeta function are built
once, on first use.
"""

from __future__ import annotations

from functools import cached_property, wraps
from typing import Iterable, List, Optional, Sequence, Tuple

from .kernel import (
    LaurentPolynomial,
    NormalizedTorsionClass,
    PolyMatrix,
    RationalFunction,
    SparseMatrix,
    _sparse_row,
    as_exact,
    homology_order,
    normalize_unit_class,
    products_cancel,
    scalar_inverse,
)
from .lattice import smith_integer
from .record import Record
from .torus import Mat2, rl_runs

Word = Tuple[int, ...]
# A decorated chain is a tuple of paths (word, terms): a term (end, target,
# coeff) puts coeff times word[:end] on the target cell.  Ends never
# decrease, so one left-to-right walk of the word reads every term.
Chain = Tuple[Tuple[Word, Tuple[Tuple[int, int, int], ...]], ...]

ORDER_CAP = 20000
# The most letters a word composed by `GeneratorEndomorphism._product` may
# have before free reduction.  The largest such word of a shipped fixture
# has 6,802 letters (pair B's inverse monodromy), and that of a matrix of
# the benchmark's pool 152.  `torus_monodromy` refuses a matrix whose R/L
# runs have more letters, before it builds a word.
WORD_CAP = 1_000_000


# ---------------------------------------------------------------------------
# free word calculus
# ---------------------------------------------------------------------------

def free_reduce(word: Iterable[int]) -> Word:
    """Freely reduce a word (cancel adjacent inverse pairs)."""
    out: List[int] = []
    for letter in word:
        if letter == 0:
            raise ValueError("generator indices are signed and nonzero")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_inverse(word: Iterable[int]) -> Word:
    return tuple(-letter for letter in reversed(tuple(word)))


def word_concat(*words: Iterable[int]) -> Word:
    merged: List[int] = []
    for w in words:
        merged.extend(w)
    return free_reduce(merged)


def exponent_sum(word: Iterable[int], index: int) -> int:
    if index <= 0:
        raise ValueError("generator index must be positive")
    total = 0
    for letter in word:
        if letter == index:
            total += 1
        elif letter == -index:
            total -= 1
    return total


def fox_derivative(word: Iterable[int], index: int) -> Tuple[Tuple[int, Word], ...]:
    """Free derivative of `word` with respect to generator `index`.

    Returns an integer combination of group elements as (coefficient, word)
    pairs: d(ug)/dg = du/dg + u and d(ug^{-1})/dg = du/dg - ug^{-1}.
    """
    if index <= 0:
        raise ValueError("generator index must be positive")
    # Every prefix of a reduced word is reduced, so each term word is a
    # slice of the reduced word.
    ((w, terms),) = _fox_chain(free_reduce(word), index)
    return tuple((coeff, w[:end]) for end, target, coeff in terms
                 if target == index - 1)


def _check_indices(word: Iterable[int], n_generators: int,
                   field: str = "letter", index: Optional[int] = None) -> Word:
    """Freely reduce a word of integer letters in +-1..+-n_generators.  A
    letter out of range names the word, `field[index]`, when it is entry
    `index` of a list."""
    letters = tuple(word)
    bad = next((x for x in letters if not 0 < abs(x) <= n_generators), None)
    if bad is not None:
        reason = (f"letter {bad} exceeds generator count {n_generators}"
                  if bad else "generator indices are signed and nonzero")
        raise ValueError(reason if index is None
                         else f"{field}[{index}]: {reason}")
    return free_reduce(letters)


# ---------------------------------------------------------------------------
# surface presentations
# ---------------------------------------------------------------------------

class SurfacePresentation(Record):
    """Presentation of a surface group.

    Closed surfaces carry 2*genus generators and the single product-of-
    commutators relator; bounded surfaces are free of rank
    2*genus + boundary_count - 1.
    """

    def __init__(self, genus: int, boundary_count: int,
                 generators: Tuple[str, ...], relators: Tuple[Word, ...]):
        if genus < 0 or boundary_count < 0:
            raise ValueError("genus and boundary count must be nonnegative")
        if boundary_count == 0:
            if len(generators) != 2 * genus or len(relators) != 1:
                raise ValueError("closed surface needs 2*genus generators "
                                 "and exactly one relator")
        else:
            expected = 2 * genus + boundary_count - 1
            if len(generators) != expected or relators:
                raise ValueError("bounded surface group is free of rank "
                                 "2*genus + boundary_count - 1")
        if len(set(generators)) != len(generators):
            raise ValueError("generator names must be distinct")
        for i, r in enumerate(relators):
            reduced = _check_indices(r, len(generators), "fiber relators", i)
            if reduced != tuple(r):
                raise ValueError("relators must be freely reduced words")
        self.__dict__.update(genus=genus, boundary_count=boundary_count,
                             generators=generators, relators=relators)

    @classmethod
    def closed(cls, genus: int) -> "SurfacePresentation":
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        names: List[str] = []
        relator: List[int] = []
        for i in range(1, genus + 1):
            names.extend([f"a{i}", f"b{i}"])
            a, b = 2 * i - 1, 2 * i
            relator.extend([a, b, -a, -b])
        return cls(genus, 0, tuple(names), (tuple(relator),))

    @classmethod
    def with_boundary(cls, genus: int, boundary_count: int) -> "SurfacePresentation":
        if genus < 0 or boundary_count < 1:
            raise ValueError("need nonnegative genus and at least one "
                             "boundary circle")
        names = []
        for i in range(1, genus + 1):
            names.extend([f"a{i}", f"b{i}"])
        for i in range(1, boundary_count):
            names.append(f"c{i}")
        return cls(genus, boundary_count, tuple(names), ())

    @property
    def rank(self) -> int:
        return len(self.generators)


# ---------------------------------------------------------------------------
# monodromy endomorphisms on generators
# ---------------------------------------------------------------------------

class GeneratorEndomorphism(Record):
    """An automorphism of a surface group given by generator images.

    `inverse_images` witnesses invertibility: the two substitutions must
    compose to the identity on every generator, in both orders, on freely
    reduced words, and a closed surface's relator must go to a conjugate
    of itself or its inverse (`relator_conjugacy`).  Both are checked on
    construction, so no unchecked instance exists; `identity`, `compose`,
    `power`, `inverse` and `torus_monodromy` build products of checked
    factors (`_product`), which pass both by construction.
    """

    def __init__(self, source: SurfacePresentation, images: Tuple[Word, ...],
                 inverse_images: Tuple[Word, ...]):
        if len(images) != source.rank:
            raise ValueError("need exactly one image word per generator")
        images = tuple(_check_indices(w, source.rank, "images", j)
                       for j, w in enumerate(images))
        inverse_images = tuple(
            _check_indices(w, source.rank, "inverse_images", j)
            for j, w in enumerate(inverse_images))
        if len(inverse_images) != source.rank:
            raise ValueError("inverse witness needs one word per generator")
        self.__dict__.update(source=source, images=images,
                             inverse_images=inverse_images)
        for j, word in enumerate(inverse_images, 1):
            forward = self.apply(word)
            backward = _substitute(inverse_images, images[j - 1])
            if forward != (j,) or backward != (j,):
                raise ValueError("inverse witness does not invert the "
                                 "generator images")
        if source.boundary_count == 0:
            self.relator_conjugacy()

    @classmethod
    def identity(cls, pres: SurfacePresentation) -> "GeneratorEndomorphism":
        return cls._product(pres, ())

    @classmethod
    def _product(cls, source: SurfacePresentation,
                 factors) -> "GeneratorEndomorphism":
        """f_1 o f_2 o ... o f_k (f_k applied first) of factors given as
        (images, inverse_images) of endomorphisms that passed the checks of
        `__init__`.  The composed inverse words invert the product, and the
        product carries the relator, by construction, so it is built
        without checking again."""
        identity = tuple((j,) for j in range(1, source.rank + 1))
        factors = iter(factors)
        # the product of the identity and the first factor is that factor
        images, inverse = next(factors, (identity, identity))
        for forward, backward in factors:
            images = _substitute_all(images, forward)
            inverse = _substitute_all(backward, inverse)
        endo = object.__new__(cls)
        endo.__dict__.update(source=source, images=images,
                             inverse_images=inverse)
        return endo

    @classmethod
    def torus_monodromy(cls, matrix: Mat2) -> "GeneratorEndomorphism":
        """Genus-1 monodromy realizing an integer matrix of determinant +-1.

        The determinant-1 part is factored into R/L runs by `torus.rl_runs`;
        the runs, the central flip for sign -1 and the generator swap for
        determinant -1 are composed in that order, each a factor that checks
        its own witness.  Runs of more than `WORD_CAP` letters in all are
        refused (ValueError) before any word is built.
        """
        det = matrix.det()
        if det not in (1, -1):
            raise ValueError("monodromy matrix must have determinant +1 or -1")
        sign, moves = rl_runs(matrix if det == 1 else matrix @ Mat2(0, 1, 1, 0))
        if sum(abs(k) for _, k in moves) > WORD_CAP:
            raise ValueError(f"the R/L runs of the monodromy matrix have more "
                             f"than {WORD_CAP} letters, the bound on a word")
        if sign == -1:
            moves.append(("N", 1))
        if det == -1:
            moves.append(("W", 1))
        pres = SurfacePresentation.closed(1)
        factors = [cls(pres, _torus_move(letter, k), _torus_move(letter, -k))
                   for letter, k in moves]
        endo = cls._product(pres, [(f.images, f.inverse_images)
                                   for f in factors])
        if endo.abelianization() != ((matrix.a, matrix.b), (matrix.c, matrix.d)):
            raise AssertionError("R/L factorization lost the matrix")
        return endo

    def apply(self, word: Iterable[int]) -> Word:
        return _substitute(self.images, word)

    def compose(self, inner: "GeneratorEndomorphism") -> "GeneratorEndomorphism":
        """self o inner: apply `inner` first, then `self`."""
        if inner.source != self.source:
            raise ValueError("compose needs endomorphisms of the same group")
        return self._product(self.source,
                             ((self.images, self.inverse_images),
                              (inner.images, inner.inverse_images)))

    def inverse(self) -> "GeneratorEndomorphism":
        """Inverse substitution, read from the witness."""
        return self._product(self.source,
                             ((self.inverse_images, self.images),))

    def power(self, m: int) -> "GeneratorEndomorphism":
        if m < 0:
            raise ValueError("only nonnegative powers are defined here")
        return self._product(self.source,
                             ((self.images, self.inverse_images),) * m)

    def abelianization(self) -> Tuple[Tuple[int, ...], ...]:
        """Row tuples of the induced matrix on H1; column j is the exponent
        vector of the j-th generator image."""
        n = self.source.rank
        return tuple(
            tuple(exponent_sum(self.images[j], i + 1) for j in range(n))
            for i in range(n))

    def relator_conjugacy(self) -> Tuple[int, Word]:
        """For closed surfaces: (sign, w) with image(relator) = w r^sign w^-1.

        Exact decision: the image is conjugate to r (or its inverse) if and
        only if their cyclic reductions agree up to rotation.  `__init__`
        raises ValueError when the relator is not preserved.  The
        endomorphism keeps the certificate it finds, so the search runs
        once.
        """
        if self.source.boundary_count != 0:
            raise ValueError("relator conjugacy only concerns closed surfaces")
        return self._relator_certificate

    @cached_property
    def _relator_certificate(self) -> Tuple[int, Word]:
        relator = self.source.relators[0]
        image = self.apply(relator)
        trimmed = list(image)
        peeled: List[int] = []
        while len(trimmed) >= 2 and trimmed[0] == -trimmed[-1]:
            peeled.append(trimmed[0])
            trimmed = trimmed[1:-1]
        core = tuple(trimmed)
        for sign in (1, -1):
            base = relator if sign == 1 else word_inverse(relator)
            if len(core) != len(base):
                continue
            for j in range(max(1, len(base))):
                if core == base[j:] + base[:j]:
                    conj = word_concat(tuple(peeled), word_inverse(base[:j]))
                    rebuilt = word_concat(conj, base, word_inverse(conj))
                    if rebuilt != image:
                        raise AssertionError("conjugator reconstruction failed")
                    return sign, conj
        raise ValueError("generator images do not carry the surface relator "
                         "to a conjugate of itself or its inverse")

    @cached_property
    def _mapping_torus(self) -> "MappingTorusPresentation":
        """The canonical presentation of `mapping_torus`, built and checked
        once per monodromy."""
        pres = self.source
        g = pres.rank
        name = "t"
        while name in pres.generators:
            name += "'"
        t = g + 1
        mt = MappingTorusPresentation(
            generators=pres.generators + (name,),
            relators=pres.relators + tuple(
                word_concat((t, j, -t), word_inverse(image))
                for j, image in enumerate(self.images, 1)),
            fiber_values=(0,) * g + (1,),
            fiber=pres, monodromy=self, stable_index=t)
        rows = [list(r) for r in self.abelianization()]
        for i in range(g):
            rows[i][i] -= 1
        free_rank, torsion = _abelian_invariants(rows, g)
        if mt.abelianization() != (free_rank + 1, torsion):
            raise AssertionError("abelianization disagrees with the semidirect "
                                 "block structure")
        return mt


def _substitute(images: Sequence[Word], word: Iterable[int]) -> Word:
    pieces: List[int] = []
    for letter in free_reduce(word):
        image = images[abs(letter) - 1]
        pieces.extend(image if letter > 0 else word_inverse(image))
    return free_reduce(pieces)


def _substitute_all(images: Sequence[Word],
                    words: Sequence[Word]) -> Tuple[Word, ...]:
    """`_substitute(images, w)` for each reduced word w; ValueError, before
    any is built, when one would have more than `WORD_CAP` letters before
    free reduction."""
    lengths = [len(image) for image in images]
    for w in words:
        letters = sum(lengths[abs(x) - 1] for x in w)
        if letters > WORD_CAP:
            raise ValueError(f"a composed word would have {letters} letters, "
                             f"above the bound of {WORD_CAP}")
    return tuple(_substitute(images, w) for w in words)


def _abelian_invariants(rows, n_generators: int) -> Tuple[int, Tuple[int, ...]]:
    """(free rank, invariant factors > 1) of the abelian group on
    `n_generators` generators with integer relation rows `rows`."""
    nonzero = [d for d in smith_integer(rows)[0] if d != 0]
    return (n_generators - len(nonzero), tuple(d for d in nonzero if d > 1))


def _power_word(index: int, q: int) -> Word:
    return (index,) * q if q >= 0 else (-index,) * (-q)


def _torus_move(letter: str, k: int) -> Tuple[Word, ...]:
    """Generator images of one genus-1 move: R^k, L^k, the central flip N or
    the swap W; the move (letter, -k) is its inverse."""
    if letter == "R":                     # b -> a^k b
        return ((1,), _power_word(1, k) + (2,))
    if letter == "L":                     # a -> a b^k
        return ((1,) + _power_word(2, k), (2,))
    return ((-1,), (-2,)) if letter == "N" else ((2,), (1,))


# ---------------------------------------------------------------------------
# the fibered presentation with stable letter
# ---------------------------------------------------------------------------

class MappingTorusPresentation(Record):
    """Group presentation of a fibered 3-complex with distinguished degree map.

    Generators are the fiber generators followed (initially) by the stable
    letter; `fiber_values` records the degree class, which evaluates to 1 on
    the stable letter and to 0 on fiber generators.  Relators are the fiber
    relator (closed case) plus one commutation relator per fiber generator:
    t g t^-1 image(g)^-1.  Each fiber generator is named once among the
    generators, other than the stable letter: the canonical presentation of
    the monodromy is matched to this one by name.
    """

    def __init__(self, generators: Tuple[str, ...], relators: Tuple[Word, ...],
                 fiber_values: Tuple[int, ...], fiber: SurfacePresentation,
                 monodromy: GeneratorEndomorphism, stable_index: int):
        n = len(generators)
        if len(fiber_values) != n:
            raise ValueError("need one degree value per generator")
        if not (1 <= stable_index <= n):
            raise ValueError("stable letter index out of range")
        if fiber_values[stable_index - 1] != 1:
            raise ValueError("degree class must evaluate to 1 on the stable letter")
        relators = tuple(_check_indices(r, n, "relators", i)
                         for i, r in enumerate(relators))
        self.__dict__.update(generators=generators, relators=relators,
                             fiber_values=fiber_values, fiber=fiber,
                             monodromy=monodromy, stable_index=stable_index)
        for r in relators:
            if self.degree(r) != 0:
                raise ValueError("every relator must have degree zero")
        stable = generators[stable_index - 1]
        for name in fiber.generators:
            if generators.count(name) != 1 or name == stable:
                raise ValueError(f"generators must name fiber generator "
                                 f"{name!r} once, other than the stable "
                                 f"letter")

    @property
    def rank(self) -> int:
        return len(self.generators)

    def degree(self, word: Iterable[int]) -> int:
        """Evaluate the distinguished degree class on a word."""
        total = 0
        for letter in word:
            value = self.fiber_values[abs(letter) - 1]
            total += value if letter > 0 else -value
        return total

    def abelianization(self) -> Tuple[int, Tuple[int, ...]]:
        """(free rank, torsion invariant factors > 1) of the abelianized group."""
        return _abelian_invariants(
            [[exponent_sum(r, j + 1) for j in range(self.rank)]
             for r in self.relators], self.rank)


def mapping_torus(pres: SurfacePresentation,
                  phi: GeneratorEndomorphism) -> MappingTorusPresentation:
    """Present the fibered group of a monodromy, checked when it was built.

    Generators: fiber generators plus a fresh stable letter t (last);
    relators: the fiber relator (closed case) and t g t^-1 phi(g)^-1 for each
    fiber generator g.  The abelianization is checked against the semidirect
    block structure: cokernel of (A - I) on fiber homology plus one free
    factor from the stable letter.  `phi` keeps the presentation, so every
    call for one monodromy returns the same object, built and checked once.
    """
    if phi.source != pres:
        raise ValueError("monodromy must act on the given presentation")
    return phi._mapping_torus


# ---------------------------------------------------------------------------
# exact finite matrix representations
# ---------------------------------------------------------------------------

ScalarMatrix = Tuple[Tuple[object, ...], ...]


def _mat_freeze(rows, dimension: int) -> ScalarMatrix:
    frozen = tuple(tuple(as_exact(e) for e in row) for row in rows)
    if len(frozen) != dimension or any(len(r) != dimension for r in frozen):
        raise ValueError(f"expected a {dimension}x{dimension} matrix")
    return frozen


def _sparse(m: ScalarMatrix) -> SparseMatrix:
    """The sparse form of a square matrix of canonical entries."""
    return tuple(tuple((j, e) for j, e in enumerate(row) if e) for row in m)


def _sparse_identity(k: int) -> SparseMatrix:
    return tuple(((i, 1),) for i in range(k))


def _sparse_mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Exact product of sparse square matrices of one size, in canonical
    form.  Each entry a[i][l] meets only the nonzero entries of b[l], so a
    product of monomial matrices costs O(k) and a dense one O(k^3)."""
    out = []
    for row in a:
        if len(row) == 1:
            # a row with one entry scales a row of b; in a field the
            # products of nonzero entries are nonzero
            ((l, x),) = row
            if type(x) is int and x == 1:
                out.append(b[l])
                continue
            scaled = []
            for j, y in b[l]:
                c = x * y
                scaled.append((j, c if type(c) is int else as_exact(c)))
            out.append(tuple(scaled))
            continue
        acc = {}
        for l, x in row:
            for j, y in b[l]:
                acc[j] = acc[j] + x * y if j in acc else x * y
        entries = []
        for j in sorted(acc):
            c = acc[j]
            if type(c) is not int:
                c = as_exact(c)
            if c:
                entries.append((j, c))
        out.append(tuple(entries))
    return tuple(out)


class FiniteRepresentation(Record):
    """Exact matrix images for the generators of a fibered presentation.

    `ORDER_CAP` bounds the closure enumeration certifying that the generated
    matrix group is finite; exceeding it is an error, not a silent pass.
    The inverse of each generator image is read from that enumeration, so
    evaluating any word, not only `validate`, raises on a generated group
    that is infinite or has a singular generator.
    """

    def __init__(self, dimension: int, matrices: Tuple[ScalarMatrix, ...]):
        if dimension < 0:
            raise ValueError("dimension must be nonnegative")
        self.__dict__.update(dimension=dimension, matrices=tuple(
            _mat_freeze(m, dimension) for m in matrices))

    @classmethod
    def trivial(cls, mt: MappingTorusPresentation) -> "FiniteRepresentation":
        one = ((1,),)
        return cls(1, tuple(one for _ in mt.generators))

    @classmethod
    def fibered_character(cls, mt: MappingTorusPresentation,
                          unit) -> "FiniteRepresentation":
        """Rank-1 representation g -> unit^(degree g); the fiber is invisible."""
        mats = tuple(((as_exact(unit) ** v if v >= 0
                       else scalar_inverse(as_exact(unit)) ** (-v),),)
                     for v in mt.fiber_values)
        return cls(1, mats)

    def evaluate_word(self, word: Iterable[int]) -> SparseMatrix:
        acc, letters = _sparse_identity(self.dimension), self._letters
        for letter in word:
            acc = _sparse_mul(acc, letters[letter])
        return acc

    def _closure(self) -> Tuple[dict, int]:
        """List the generated matrix group orbit by orbit from the identity,
        stepping by the generator images only, and return the sparse image
        of each letter (generator j at j, its inverse at -j) and the group
        order.  The inverse of generator j is the listed m with m g_j = 1:
        in a finite group it is a power of g_j.  ValueError when there are
        more than `ORDER_CAP` elements, or when some generator has no
        inverse among them (it is singular)."""
        ident = _sparse_identity(self.dimension)
        seen = {ident}
        frontier = [ident]
        steps = tuple((j, _sparse(m)) for j, m in enumerate(self.matrices, 1))
        letters = dict(steps)
        while frontier:
            fresh = []
            for m in frontier:
                for j, s in steps:
                    p = _sparse_mul(m, s)
                    if p not in seen:
                        if len(seen) >= ORDER_CAP:
                            raise ValueError(
                                "matrix group not certified finite within "
                                f"cap {ORDER_CAP}")
                        seen.add(p)
                        fresh.append(p)
                    elif p == ident:
                        letters[-j] = m
            frontier = fresh
        if len(letters) < 2 * len(steps):
            raise ValueError("matrix is singular")
        return letters, len(seen)

    @cached_property
    def _listing(self) -> Tuple[dict, int]:
        """The letter images and the group order of `_closure`, listed once
        per representation: the closure depends only on the matrices.  A
        group over `ORDER_CAP` stores nothing, so it raises on every call."""
        return self._closure()

    @property
    def _letters(self) -> dict:
        """The sparse image of each letter, generator j at j and its
        inverse at -j."""
        return self._listing[0]

    @cached_property
    def _complexes(self) -> dict:
        """The parts built so far of the twisted complex of each presentation
        this representation has passed `validate` for (see `_per_complex`)."""
        return {}

    def validate(self, mt: MappingTorusPresentation) -> "FiniteRepresentation":
        """Check arity, finite closure, invertibility and relator kills;
        each presentation is certified once per representation."""
        if mt in self._complexes:
            return self
        if len(self.matrices) != mt.rank:
            raise ValueError("need exactly one matrix per generator")
        self._listing  # the finite closure, listed once per representation
        ident = _sparse_identity(self.dimension)
        for r in mt.relators:
            if self.evaluate_word(r) != ident:
                raise ValueError("representation violates a relator")
        self._complexes[mt] = {}
        return self

    def restricted(self, indices: Sequence[int]) -> "FiniteRepresentation":
        if list(indices) == list(range(1, len(self.matrices) + 1)):
            return self
        return FiniteRepresentation(
            self.dimension,
            tuple(self.matrices[i - 1] for i in indices))


# ---------------------------------------------------------------------------
# the twisted chain complex and its module orders
# ---------------------------------------------------------------------------

def _fox_chain(word: Word, n_generators: int, offset: int = 0,
               images: Optional[Sequence[Word]] = None) -> Chain:
    """All free derivatives of a word as one path: the term (coeff, u) of
    d word / d g_j, for j <= n_generators, lands on target offset + j - 1.
    With `images`, the path word is the unreduced concatenation of the
    letters' images, so each term is decorated by the image of u."""
    path: List[int] = []
    terms = []
    for letter in word:
        j = abs(letter)
        piece = (letter,) if images is None else (
            images[j - 1] if letter > 0 else word_inverse(images[j - 1]))
        if j <= n_generators:
            end, coeff = ((len(path), 1) if letter > 0
                          else (len(path) + len(piece), -1))
            terms.append((end, offset + j - 1, coeff))
        path.extend(piece)
    return ((tuple(path), tuple(terms)),)


def _presentation_chains(n_generators: int, relators: Sequence[Word]):
    """Boundary chains of a presentation complex with one 0-cell: the 1-cell
    of g bounds g - 1, the 2-cell of r bounds the free derivatives of r."""
    one = tuple((((j,), ((0, 0, -1), (1, 0, 1))),)
                for j in range(1, n_generators + 1))
    two = tuple(_fox_chain(r, n_generators) for r in relators)
    return one, two


def _chain_matrix(mt: MappingTorusPresentation, rep: FiniteRepresentation,
                  chains: Sequence[Chain], n_targets: int,
                  strip_degree: int = 0) -> PolyMatrix:
    """Twisted matrix of decorated chains, one block column per chain and
    one block row per target.  Each path is walked once, left to right, and
    a term (end, target, coeff) adds coeff t^(degree u - strip_degree) times
    the nonzero entries of the running image of u = word[:end] to its
    block, which is stored transposed for the row-vector convention."""
    k, letters = rep.dimension, rep._letters
    identity = _sparse_identity(k)
    # one dict {column: {exponent: coeff}} of the nonzero entries per row
    grid = [{} for _ in range(k * n_targets)]
    for source, chain in enumerate(chains):
        for word, terms in chain:
            mat, degree, position = identity, -strip_degree, 0
            for end, target, coeff in terms:
                for letter in word[position:end]:
                    mat = _sparse_mul(mat, letters[letter])
                degree += mt.degree(word[position:end])
                position = end
                for i, row in enumerate(mat):
                    column = source * k + i
                    for j, value in row:
                        cells = grid[target * k + j]
                        entry = cells.get(column)
                        if entry is None:
                            entry = cells[column] = {}
                        c = coeff * value
                        entry[degree] = (entry[degree] + c
                                         if degree in entry else c)
    return PolyMatrix(k * n_targets, k * len(chains),
                      tuple(map(_sparse_row, grid)))


def group_ring_image(mt: MappingTorusPresentation, rep: FiniteRepresentation,
                     combo: Iterable[Tuple[int, Word]]) -> PolyMatrix:
    """Image of an integer combination of group elements: each word w maps to
    t^(degree w) times its matrix image; results live in k x k Laurent
    matrices."""
    chain = tuple((tuple(word), ((len(word), 0, coeff),))
                  for coeff, word in combo)
    return _chain_matrix(mt, rep, (chain,), 1).grid_transpose()


def _per_complex(build):
    """Make build(mt, rep, ...) a reader of the twisted complex of mt
    under rep, which rep keeps (see `FiniteRepresentation.validate`): each
    part is built once, on first use."""
    @wraps(build)
    def reader(mt, rep, *args, **kwargs):
        parts = rep.validate(mt)._complexes[mt]
        key = (build, args, tuple(kwargs.items()))
        if key not in parts:
            parts[key] = build(mt, rep, *args, **kwargs)
        return parts[key]
    return reader


@_per_complex
def _presentation_boundaries(mt: MappingTorusPresentation,
                             rep: FiniteRepresentation):
    """(d1, d2) of the presentation complex of mt, checked for d1 d2 = 0."""
    one, two = _presentation_chains(mt.rank, mt.relators)
    d1 = _chain_matrix(mt, rep, one, 1)
    d2 = _chain_matrix(mt, rep, two, mt.rank)
    if d1.cols and d2.cols and not products_cancel((1, d1, d2)):
        raise AssertionError("presentation complex lost d.d = 0")
    return d1, d2


@_per_complex
def mapping_torus_boundaries(mt: MappingTorusPresentation,
                             rep: FiniteRepresentation):
    """Boundary matrices (d1, d2, d3) of the three-dimensional cellular chain
    model of the fibered space over F[t^{+-1}], in the row-vector block
    convention.  d1 and d2 are the presentation-complex boundaries of the
    canonical presentation, checked where they are built; d3 is the boundary
    of the flow cell of the fiber 2-cell, checked here for d2 d3 = 0.  Each
    canonical fiber generator reads the image of the generator of mt with
    its name, and the canonical stable letter that of mt's stable letter.
    """
    canonical = mapping_torus(mt.fiber, mt.monodromy)
    fiber = canonical.fiber
    sub = rep.restricted([mt.generators.index(name) + 1
                          for name in fiber.generators] + [mt.stable_index])
    d1, d2 = _presentation_boundaries(canonical, sub)
    chains = ()
    if fiber.boundary_count == 0 and fiber.relators:
        t = canonical.stable_index
        phi = canonical.monodromy
        sign, conj = phi.relator_conjugacy()
        # The 3-cell is glued along the free identity
        #     t r t^-1 = C * (conj r^sign conj^-1)
        # where C collects one flow relator per letter of r.  The fiber
        # 2-cell therefore receives sign*conj - t, and pushing t through
        # the letters of r leaves the monodromy image of each Fox
        # derivative on the flow cell of the matching generator.
        chains = (((conj, ((len(conj), 0, sign),)), ((t,), ((1, 0, -1),)))
                  + _fox_chain(fiber.relators[0], fiber.rank, 1, phi.images),)
    d3 = _chain_matrix(canonical, sub, chains, len(canonical.relators))
    if d2.cols and d3.cols and not products_cancel((1, d2, d3)):
        raise AssertionError("three-dimensional chain model lost d.d = 0")
    return d1, d2, d3


@_per_complex
def twisted_alexander(mt: MappingTorusPresentation, rep: FiniteRepresentation,
                      n: int) -> LaurentPolynomial:
    """Order of the degree-n twisted homology module, n in 0..3.

    Degrees 0 and 1 come from the presentation complex of mt; degrees 2 and
    3 from the three-dimensional model of the fibered space (see
    `mapping_torus_boundaries`).  Returns 0 exactly when the module has
    positive rank, otherwise a monic-normal representative.
    """
    if n not in (0, 1, 2, 3):
        raise ValueError(f"unsupported degree {n}: expected 0, 1, 2, or 3")
    if n < 2:
        d1, d2 = _presentation_boundaries(mt, rep)
        return homology_order(d1, None) if n == 0 else homology_order(d2, d1)
    _, d2, d3 = mapping_torus_boundaries(mt, rep)
    if n == 2:
        return homology_order(d3, d2)
    return homology_order(None, d3)


def twisted_torsion(mt: MappingTorusPresentation,
                    rep: FiniteRepresentation) -> NormalizedTorsionClass:
    """Alternating-product torsion class Delta_1 Delta_3 / (Delta_0 Delta_2),
    normalized; zero exactly when some degree has positive-rank homology."""
    deltas = [twisted_alexander(mt, rep, n) for n in range(4)]
    if any(d.is_zero() for d in deltas):
        return normalize_unit_class(RationalFunction.zero())
    numerator = deltas[1] * deltas[3]
    denominator = deltas[0] * deltas[2]
    return normalize_unit_class(RationalFunction(numerator, denominator))
