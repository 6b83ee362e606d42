"""Tests for crystal operators, graph generation and stabilized decompositions."""

import functools
import itertools
import os
import subprocess
import sys
import textwrap
import types

import pytest

import crystalline
from crystalline import crystal
from crystalline.crystal import (
    CrystalClosureError,
    CrystalElement,
    build_graph,
    hw_decompose_tensor,
    letter_e,
    letter_eps,
    letter_f,
    letter_graph_edges,
    letter_phi,
    reading_positions,
    reading_word,
    simple_root,
    stabilized_decomposition,
    StableComponent,
    tableau_eps,
    tableau_op,
    tableau_phi,
    tensor_e,
    tensor_f,
    tensor_highest_weights,
    word_eps,
    word_phi,
    word_weight,
)
from crystalline.grothendieck import make_label
from crystalline.symfunc import lr_expand, sigma_char
from crystalline import tableaux
from crystalline.tableaux import (
    KNTableau,
    alphabet,
    column_pair_ok,
    enumerate_kn,
    kn_validate,
    t_lambda,
)
from crystalline.weights import (
    DominantShape,
    InvalidShapeError,
    ResourceCapError,
    StabilizationError,
    Weight,
    level_shapes,
    pairing,
    partitions_of,
    truncation_shape,
)


def signed_variants(shape, n):
    """The shape itself plus, for full-height type-d shapes, its signed twin."""
    out = [tuple(shape)]
    if len(shape) == n and shape[-1] > 0:
        out.append(tuple(shape[:-1]) + (-shape[-1],))
    return out


def sweep_shapes(lie_type, n, budget):
    seen = []
    for size in range(1, budget + 1):
        for lam in partitions_of(size, max_part=n):
            if len(lam) > n:
                continue
            if lie_type == "d":
                seen.extend(signed_variants(lam, n))
            else:
                seen.append(lam)
    return seen


def test_package_surface_is_the_import_list():
    names = crystalline.__all__
    assert names == sorted(names)
    for name in names:
        assert not isinstance(getattr(crystalline, name), types.ModuleType), name
    assert {"StableComponent", "make_label", "stabilized_decomposition"} <= set(names)
    assert {"TensorFactor", "jt_determinant"}.isdisjoint(names)
    namespace = {}
    exec("from crystalline import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == names


# ---------------------------------------------------------------------------
# single letters


def test_letter_graphs_are_the_expected_chains_and_diamond():
    assert letter_graph_edges("c", 2) == ((-2, 1, -1), (-1, 0, 1), (1, 1, 2))
    assert letter_graph_edges("b", 2) == (
        (-2, 1, -1),
        (-1, 0, 0),
        (0, 0, 1),
        (1, 1, 2),
    )
    assert letter_graph_edges("d", 2) == (
        (-2, 0, 1),
        (-2, 1, -1),
        (-1, 0, 2),
        (1, 1, 2),
    )
    assert letter_graph_edges("c", 3) == (
        (-3, 2, -2),
        (-2, 1, -1),
        (-1, 0, 1),
        (1, 1, 2),
        (2, 2, 3),
    )
    assert letter_graph_edges("b", 3) == (
        (-3, 2, -2),
        (-2, 1, -1),
        (-1, 0, 0),
        (0, 0, 1),
        (1, 1, 2),
        (2, 2, 3),
    )
    assert letter_graph_edges("d", 3) == (
        (-3, 2, -2),
        (-2, 0, 1),
        (-2, 1, -1),
        (-1, 0, 2),
        (1, 1, 2),
        (2, 2, 3),
    )


def test_letter_strings_through_the_zero_letter_have_length_two():
    assert letter_eps(-1, 0, "b", 2) == 0 and letter_phi(-1, 0, "b", 2) == 2
    assert letter_eps(0, 0, "b", 2) == 1 and letter_phi(0, 0, "b", 2) == 1
    assert letter_eps(1, 0, "b", 2) == 2 and letter_phi(1, 0, "b", 2) == 0


@pytest.mark.parametrize("lie_type", ["b", "c", "d"])
def test_letter_string_lengths_match_coroot_pairings(lie_type):
    n = 3
    letters = [x for x in range(-n, n + 1) if x != 0 or lie_type == "b"]
    for x in letters:
        w = word_weight((x,), n)
        for i in range(n):
            diff = letter_phi(x, i, lie_type, n) - letter_eps(x, i, lie_type, n)
            assert diff == pairing(w, i, lie_type), (x, i)


def test_letter_operators_are_partial_inverses():
    for lie_type, n in [("b", 3), ("c", 3), ("d", 3)]:
        letters = [x for x in range(-n, n + 1) if x != 0 or lie_type == "b"]
        for x in letters:
            for i in range(n):
                y = letter_f(x, i, lie_type, n)
                if y is not None:
                    assert letter_e(y, i, lie_type, n) == x
                y = letter_e(x, i, lie_type, n)
                if y is not None:
                    assert letter_f(y, i, lie_type, n) == x


def reference_arrows(lie_type, n):
    """The single-box crystal as a table of lowering arrows, (letter, i) ->
    letter, written out arrow by arrow: the reference for the library's
    table of i-strings."""
    arrows = {}
    lo = 2 if lie_type == "d" else 1
    for k in range(lo, n):
        arrows[(k, k)] = k + 1
        arrows[(-(k + 1), k)] = -k
    if lie_type == "c":
        arrows[(-1, 0)] = 1
    elif lie_type == "b":
        arrows[(-1, 0)] = 0
        arrows[(0, 0)] = 1
    else:
        arrows[(-2, 0)] = 1
        arrows[(-1, 0)] = 2
        arrows[(-2, 1)] = -1
        arrows[(1, 1)] = 2
    return arrows


def walk_length(x, i, arrows):
    """How many i-arrows of the table lead on from x, one after another."""
    k = 0
    while (x, i) in arrows:
        x, k = arrows[(x, i)], k + 1
    return k


@pytest.mark.parametrize("lie_type", ["b", "c", "d"])
def test_letter_strings_match_the_arrow_table_and_string_walks(lie_type):
    for n in range(2 if lie_type == "d" else 1, 7):
        lowering = reference_arrows(lie_type, n)
        raising = {(y, i): x for (x, i), y in lowering.items()}
        assert letter_graph_edges(lie_type, n) == tuple(
            sorted((x, i, y) for (x, i), y in lowering.items())
        )
        moves = {}
        for x in alphabet(lie_type, n):
            moves[x] = []
            for i in range(n):
                assert letter_f(x, i, lie_type, n) == lowering.get((x, i))
                assert letter_e(x, i, lie_type, n) == raising.get((x, i))
                eps, phi = walk_length(x, i, raising), walk_length(x, i, lowering)
                assert letter_eps(x, i, lie_type, n) == eps, (x, i, n)
                assert letter_phi(x, i, lie_type, n) == phi, (x, i, n)
                if eps or phi:
                    moves[x].append((i, eps, phi))
        assert crystal._letter_moves(lie_type, n) == {
            x: tuple(m) for x, m in moves.items()
        }


def test_shared_letter_tables_are_read_only():
    steps, moves = crystal._letter_steps("c", 3), crystal._letter_moves("c", 3)
    with pytest.raises(TypeError):
        steps["f", 1, 1] = 3
    with pytest.raises(TypeError):
        moves[1] = ()
    assert steps["f", 1, 1] == 2 and moves is crystal._letter_moves("c", 3)
    # the scan's column-order table: 1 and -1 may alternate in type d
    below = tableaux._letters_below("d", 3)
    with pytest.raises(TypeError):
        below[None] = ()
    assert below[None] == alphabet("d", 3)
    assert below[1] == (-1, 2, 3) and below[-1] == (1, 2, 3)


def test_letter_tables_reject_a_rank_too_small_for_the_type():
    for op in (letter_f, letter_e, letter_eps, letter_phi):
        with pytest.raises(ValueError):
            op(1, 0, "d", 1)
        with pytest.raises(IndexError):
            op(1, 2, "c", 2)
    with pytest.raises(ValueError):
        letter_graph_edges("c", 0)
    assert letter_eps(7, 0, "c", 2) == letter_phi(7, 0, "c", 2) == 0


# ---------------------------------------------------------------------------
# words


def test_lowering_prefers_the_leftmost_unmatched_factor():
    assert tensor_f((1, 1), 1, "c", 2) == (2, 1)
    assert tensor_e((2, 1), 1, "c", 2) == (1, 1)
    assert tensor_f((2, 1), 1, "c", 2) == (2, 2)
    assert tensor_f((2, 2), 1, "c", 2) is None


def test_zero_index_arrows_on_words():
    assert tensor_f((-1,), 0, "c", 2) == (1,)
    assert tensor_f((-1,), 0, "b", 2) == (0,)
    assert tensor_f((0,), 0, "b", 2) == (1,)
    assert tensor_f((-2,), 0, "d", 2) == (1,)
    assert tensor_f((-1,), 0, "d", 2) == (2,)
    assert tensor_e((1,), 0, "d", 2) == (-2,)
    assert tensor_e((2,), 0, "d", 2) == (-1,)


def test_signature_cancellation():
    # -1 then 1 in type c: the raising string of the right letter cancels
    # against the lowering string of the left one
    assert word_eps((-1, 1), 0, "c", 2) == 0
    assert word_phi((-1, 1), 0, "c", 2) == 0
    assert tensor_f((-1, 1), 0, "c", 2) is None
    assert tensor_e((-1, 1), 0, "c", 2) is None
    # reversed there is no cancellation
    assert word_eps((1, -1), 0, "c", 2) == 1
    assert word_phi((1, -1), 0, "c", 2) == 1


def test_word_functions_reject_letters_outside_the_alphabet():
    # the single-letter functions answer 0 or None there instead
    for fn in (word_eps, word_phi, tensor_e, tensor_f):
        for word, lie_type in [((5,), "c"), ((1, 0, 2), "c"), ((-3, 1), "b")]:
            with pytest.raises(ValueError, match="outside the rank-2 alphabet"):
                fn(word, 1, lie_type, 2)


def brute_reduction(pairs):
    """The signature rule by the definition, on a sequence of (eps, phi)
    pairs: write out eps minus signs then phi plus signs per position, cancel
    adjacent (+, -) pairs until none remain, and read off the surviving
    counts, the rightmost - and the leftmost +."""
    signs = []
    for pos, (eps, phi) in enumerate(pairs):
        signs += [("-", pos)] * eps + [("+", pos)] * phi
    changed = True
    while changed:
        changed = False
        for k in range(len(signs) - 1):
            if signs[k][0] == "+" and signs[k + 1][0] == "-":
                del signs[k : k + 2]
                changed = True
                break
    minus = [pos for sign, pos in signs if sign == "-"]
    plus = [pos for sign, pos in signs if sign == "+"]
    return (
        len(minus),
        len(plus),
        minus[-1] if minus else None,
        plus[0] if plus else None,
    )


def brute_signature(word, i, lie_type, n):
    """The reduced i-signature of a word by the definition."""
    return brute_reduction(
        (letter_eps(x, i, lie_type, n), letter_phi(x, i, lie_type, n)) for x in word
    )


@pytest.mark.parametrize("lie_type", ["b", "c", "d"])
def test_one_reduction_matches_pairwise_cancellation(lie_type):
    seen = set()
    for n in (2, 3):
        letters = [x for x in range(-n, n + 1) if x != 0 or lie_type == "b"]
        for length in range(5):
            for word in itertools.product(letters, repeat=length):
                signatures = crystal._signatures(word, lie_type, n)
                assert all(len(column) == n for column in signatures)
                for i in range(n):
                    want = brute_signature(word, i, lie_type, n)
                    assert tuple(column[i] for column in signatures) == want
                    minus, plus, e_pos, f_pos = want
                    assert word_eps(word, i, lie_type, n) == minus
                    assert word_phi(word, i, lie_type, n) == plus
                    for act, pos in ((tensor_f, f_pos), (tensor_e, e_pos)):
                        out = act(word, i, lie_type, n)
                        if pos is None:
                            assert out is None
                        else:
                            diff = [k for k in range(length) if out[k] != word[k]]
                            assert diff == [pos]
                    seen.add((minus > 0, plus > 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_operator_index_bounds():
    with pytest.raises(IndexError):
        tensor_f((1,), 2, "c", 2)
    with pytest.raises(IndexError):
        tensor_e((1,), -1, "c", 2)
    with pytest.raises(IndexError):
        letter_f(1, 3, "b", 3)


def test_simple_roots():
    assert simple_root(0, "c") == Weight((-2,), 0)
    assert simple_root(0, "b") == Weight((-1,), 0)
    assert simple_root(0, "d") == Weight((-1, -1), 0)
    assert simple_root(2, "c") == Weight((0, 1, -1), 0)
    with pytest.raises(IndexError):
        simple_root(-1, "c")


# ---------------------------------------------------------------------------
# the reading of tableaux, and the rejected mirrored reading


def mirrored_positions(shape):
    """The rejected reading: columns left to right, each bottom to top,
    which is the library's reading reversed."""
    return reading_positions(shape)[::-1]


def mirrored_op(T, op, i):
    """A tableau operator under the mirrored reading, with no closure check."""
    positions = mirrored_positions(T.shape)
    word = [T.rows[r][c] for r, c in positions]
    act = tensor_f if op == "f" else tensor_e
    new_word = act(word, i, T.lie_type, T.rank)
    if new_word is None:
        return None
    rows = [list(row) for row in T.rows]
    for (r, c), x in zip(positions, new_word):
        rows[r][c] = x
    return KNTableau(T.shape, tuple(map(tuple, rows)), T.lie_type, T.rank)


def test_reading_positions_both_orders():
    assert reading_positions((2, 1)) == ((0, 1), (0, 0), (1, 0))
    assert mirrored_positions((2, 1)) == ((1, 0), (0, 0), (0, 1))
    assert reading_positions((1, 1, -1)) == ((0, 0), (1, 0), (2, 0))
    assert mirrored_positions((1, 1, -1)) == ((2, 0), (1, 0), (0, 0))


def test_reading_word_of_the_top_filling():
    T = t_lambda((2, 1), "c", 3)
    assert T.rows == ((1, 1), (2,))
    assert reading_word(T) == (1, 1, 2)
    assert tuple(T.rows[r][c] for r, c in mirrored_positions(T.shape)) == (2, 1, 1)


def test_default_reading_order_closes_the_two_cell_row():
    T = t_lambda((2,), "c", 2)
    g = build_graph(T)
    assert len(g) == 10
    assert len(g.sources()) == 1
    assert tableau_op(T, "f", 1).rows == ((1, 2),)
    # under the mirrored reading the first lowering step already breaks the row
    down = mirrored_op(T, "f", 1)
    assert down.rows == ((2, 1),) and not kn_validate(down)


def test_reading_positions_memo_is_keyed_by_shape():
    assert reading_positions([2, 1]) == reading_positions((2, 1))
    assert reading_positions((1, 1, -1)) == reading_positions((1, 1, 1))


def test_tableau_op_raises_when_an_output_breaks_the_rules(monkeypatch):
    T = t_lambda((2, 1), "c", 3)
    lowered = tableau_op(T, "f", 1)
    assert lowered.rows == ((1, 2), (2,))
    monkeypatch.setattr(crystal, "kn_validate", lambda *args, **kwargs: False)
    with pytest.raises(CrystalClosureError) as info:
        tableau_op(T, "f", 1)
    err = info.value
    assert (err.tableau, err.op, err.index, err.result) == (T, "f", 1, lowered)
    # an operator that does not apply produces nothing to check
    assert tableau_op(T, "e", 1) is None


def test_tableau_op_check_holds_under_optimize():
    script = textwrap.dedent(
        """
        import crystalline.crystal as crystal
        from crystalline.tableaux import t_lambda

        crystal.kn_validate = lambda *args, **kwargs: False
        try:
            crystal.tableau_op(t_lambda((2, 1), "c", 3), "f", 1)
        except crystal.CrystalClosureError as err:
            print("raised", err.op, err.index, __debug__)
        try:
            crystal._model_source((2, 1), "c", 3)
        except crystal.CrystalClosureError as err:
            print("raised", err.op, err.index, __debug__)
        try:
            crystal.build_graph(t_lambda((2, 1), "c", 3))
        except crystal.CrystalClosureError as err:
            print("raised", err.op, err.index, __debug__)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(crystalline.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised f 1 False", "raised source None False", "raised e 0 False"
    ]


def test_tableau_op_rejects_unknown_operator_names():
    T = t_lambda((1,), "c", 2)
    with pytest.raises(ValueError):
        tableau_op(T, "raise", 0)
    with pytest.raises(IndexError):
        tableau_op(T, "e", -1)


# ---------------------------------------------------------------------------
# crystal axioms over a shape sweep


@pytest.mark.parametrize("lie_type,n", [("c", 2), ("c", 3), ("b", 2), ("d", 3)])
def test_crystal_axioms_sweep(lie_type, n):
    budget = 4 if (lie_type, n) in (("c", 2), ("d", 3)) else 3
    for shape in sweep_shapes(lie_type, n, budget):
        for T in enumerate_kn(shape, lie_type, n):
            w = T.weight()
            for i in range(n):
                down = tableau_op(T, "f", i)
                if down is not None:
                    assert tableau_op(down, "e", i) == T
                    assert down.weight() == w - simple_root(i, lie_type)
                up = tableau_op(T, "e", i)
                if up is not None:
                    assert tableau_op(up, "f", i) == T
                    assert up.weight() == w + simple_root(i, lie_type)
                diff = tableau_phi(T, i) - tableau_eps(T, i)
                assert diff == pairing(w, i, lie_type)
                # the raising count is an honest string length
                k, probe = 0, T
                while True:
                    probe = tableau_op(probe, "e", i)
                    if probe is None:
                        break
                    k += 1
                assert k == tableau_eps(T, i)


def word_closure(word, lie_type, n):
    """Every word reached from ``word`` by the word operators alone, which
    know nothing of tableaux or their filling rules."""
    seen, frontier = {word}, [word]
    while frontier:
        w = frontier.pop()
        for i in range(n):
            for op in (tensor_e, tensor_f):
                v = op(w, i, lie_type, n)
                if v is not None and v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return seen


@pytest.mark.parametrize("lie_type", ["b", "c", "d"])
def test_reading_words_of_kn_fillings_are_a_word_crystal(lie_type):
    # Kashiwara-Nakashima (J. Algebra 165, 1994): the reading word embeds
    # the crystal of a shape in a tensor power of the letter crystal, so
    # closing the canonical filling's word under e_i and f_i reaches exactly
    # the words of the KN fillings.  Sets, not characters, are compared: a
    # filling rule read wrongly can keep the character and change the set.
    shapes = 0
    for n in (2, 3, 4):
        for size in range(1, 5):
            for lam in partitions_of(size):
                if len(lam) > n:
                    continue
                twins = signed_variants(lam, n) if lie_type == "d" else [lam]
                for shape in twins:
                    top = reading_word(t_lambda(shape, lie_type, n))
                    fillings = enumerate_kn(shape, lie_type, n)
                    assert word_closure(top, lie_type, n) == {
                        reading_word(T) for T in fillings
                    }, (n, shape)
                    shapes += 1
    assert shapes == {"b": 29, "c": 29, "d": 36}[lie_type]


def expected_source_window(shape, lie_type, n):
    """Reversed and negated shape, with the type-d odd-rank family swap.

    Full-height type-d shapes trade characters with their signed twins at
    odd rank (the column parity convention is fixed per row count), so the
    source weight follows the twin there.
    """
    padded = list(shape) + [0] * (n - len(shape))
    if lie_type == "d" and len(shape) == n and n % 2 == 1:
        padded[-1] = -padded[-1]
    return tuple(-part for part in reversed(padded))


@pytest.mark.parametrize("lie_type,n", [("c", 2), ("b", 2), ("d", 2), ("d", 3)])
def test_graphs_are_connected_with_one_source_of_antidominant_shape_weight(
    lie_type, n
):
    for shape in sweep_shapes(lie_type, n, 3):
        graph = build_graph(t_lambda(shape, lie_type, n))
        everything = set(enumerate_kn(shape, lie_type, n))
        assert {v.factors[0] for v in graph.vertices} == everything
        assert graph.is_connected()
        sources = graph.sources()
        assert len(sources) == 1
        expected = expected_source_window(shape, lie_type, n)
        assert sources[0].weight().window(n) == expected


def test_graph_character_matches_determinant_oracle():
    for shape, lie_type, n in [((2, 1), "c", 2), ((1, 1), "b", 2), ((2,), "d", 2)]:
        g = build_graph(t_lambda(shape, lie_type, n))
        assert g.character() == sigma_char(shape, lie_type, n)


def test_graph_vertex_cap():
    with pytest.raises(ResourceCapError):
        build_graph(t_lambda((2, 2), "c", 3), max_vertices=5)


def both_ends_closure(seed):
    """Oracle: the component of the seed found breadth first under every
    e_i and f_i, each arrow recorded from whichever end meets it."""
    start = crystal.as_element(seed)
    seen, frontier, arrows = {start}, [start], {}
    while frontier:
        new = []
        for v in frontier:
            for i in range(start.rank):
                down, up = v.op("f", i), v.op("e", i)
                if down is not None:
                    arrows[(v, i)] = down
                if up is not None:
                    arrows[(up, i)] = v
                for u in (down, up):
                    if u is not None and u not in seen:
                        seen.add(u)
                        new.append(u)
        frontier = new
    return seen, arrows


def graph_seeds():
    """Seeds over b/c/d at ranks up to 4: the top filling of small shapes,
    a vertex that is neither source nor top, and a two-factor element."""
    for lie_type in "bcd":
        for n in range(2 if lie_type == "d" else 1, 5):
            for shape in sweep_shapes(lie_type, n, 2):
                yield t_lambda(shape, lie_type, n)
            middle = enumerate_kn((2, 1) if n > 1 else (2,), lie_type, n)
            yield middle[len(middle) // 2]
            letters = enumerate_kn((1,), lie_type, n)
            yield CrystalElement((letters[-1], letters[1]))


def test_graph_arrows_equal_the_both_ends_closure():
    seeds = list(graph_seeds())
    assert any(len(crystal.as_element(seed).factors) == 2 for seed in seeds)
    for seed in seeds:
        graph = build_graph(seed)
        seen, arrows = both_ends_closure(seed)
        assert set(graph.vertices) == seen, seed
        vs = graph.vertices
        assert {(vs[s], i): vs[t] for s, i, t in graph.arrows} == arrows, seed
        assert len(graph.arrows) == len(arrows), seed
        assert crystal.as_element(seed) in seen


def test_graph_checks_each_vertex_once(monkeypatch):
    # every vertex but the seed is checked once, when it is first reached
    calls = []

    def counting(T):
        calls.append(T)
        return kn_validate(T)

    monkeypatch.setattr(crystal, "kn_validate", counting)
    singles = enumerate_kn((1,), "c", 3)
    middle = enumerate_kn((2, 1), "b", 3)
    for seed in [
        t_lambda((2, 2, 1), "c", 3),
        middle[len(middle) // 2],
        CrystalElement((singles[2], singles[4])),
    ]:
        calls.clear()
        graph = build_graph(seed)
        assert len(calls) == len(graph) - 1 > 0, seed


def test_closure_error_names_the_changed_factor(monkeypatch):
    # letters 3 (x) 1 in type c rank 3: f_1 and e_0 both act on the second
    # factor, and so does the first step of the walk up
    singles = enumerate_kn((1,), "c", 3)
    x = CrystalElement((singles[5], singles[3]))
    assert [T.rows for T in x.factors] == [((3,),), ((1,),)]
    down, up = x.op("f", 1), x.op("e", 0)
    assert down.factors[0] == up.factors[0] == x.factors[0]
    monkeypatch.setattr(crystal, "kn_validate", lambda *args, **kwargs: False)
    with pytest.raises(CrystalClosureError) as info:
        x.op("f", 1)
    err = info.value
    assert (err.tableau, err.op, err.index, err.result) == (
        x.factors[1], "f", 1, down.factors[1]
    )
    with pytest.raises(CrystalClosureError) as info:
        build_graph(x)
    err = info.value
    assert (err.tableau, err.op, err.index, err.result) == (
        x.factors[1], "e", 0, up.factors[1]
    )


def test_dot_output_is_deterministic():
    g = build_graph(t_lambda((1,), "c", 2))
    dot = g.to_dot()
    assert dot.startswith("digraph crystal {")
    assert dot == build_graph(t_lambda((1,), "c", 2)).to_dot()
    assert dot.count("->") == g.arrow_count()


# ---------------------------------------------------------------------------
# tensor elements


def test_element_requires_matching_factors():
    a = t_lambda((1,), "c", 2)
    b = t_lambda((1,), "c", 3)
    with pytest.raises(ValueError):
        CrystalElement((a, b))
    with pytest.raises(ValueError):
        CrystalElement(())


def element_families(lie_type, n):
    """Two-factor elements of single boxes, of a (2,1) and a (1,1) factor,
    and three-factor elements of single boxes."""
    singles = enumerate_kn((1,), lie_type, n)
    yield from itertools.product(singles, repeat=2)
    if n == 3:
        yield from itertools.product(
            enumerate_kn((2, 1), lie_type, n), enumerate_kn((1, 1), lie_type, n)
        )
        yield from itertools.product(singles, repeat=3)


def factor_level_op(el, op, i):
    """The operator by the factor-level rule: reduce the factors' (eps_i,
    phi_i) pairs to pick a factor, then act on that factor alone."""
    pairs = [(tableau_eps(T, i), tableau_phi(T, i)) for T in el.factors]
    _, _, e_pos, f_pos = brute_reduction(pairs)
    target = f_pos if op == "f" else e_pos
    if target is None:
        return None
    factors = list(el.factors)
    factors[target] = tableau_op(factors[target], op, i)
    return CrystalElement(tuple(factors))


def test_one_letter_count_weighs_words_tableaux_and_elements():
    assert crystal.word_weight is tableaux.word_weight is crystalline.word_weight
    for lie_type, n in [("c", 3), ("b", 3), ("d", 3)]:
        for shape in [(1,), (2, 1), (1, 1, 1)]:
            for T in enumerate_kn(shape, lie_type, n):
                assert word_weight(reading_word(T), n) == T.weight()
        for factors in element_families(lie_type, n):
            total = Weight()
            for T in factors:
                total = total + T.weight()
            assert CrystalElement(factors).weight() == total


def test_element_operator_agrees_with_concatenated_word():
    for lie_type, n in [("c", 2), ("b", 2), ("d", 2), ("c", 3), ("b", 3), ("d", 3)]:
        acted = 0
        for factors in element_families(lie_type, n):
            el = CrystalElement(factors)
            word = el.word()
            for i in range(n):
                assert (el.eps(i), el.phi(i)) == (
                    word_eps(word, i, lie_type, n), word_phi(word, i, lie_type, n)
                )
                for op, word_op in (("f", tensor_f), ("e", tensor_e)):
                    via_word = word_op(word, i, lie_type, n)
                    via_el = el.op(op, i)
                    assert via_el == factor_level_op(el, op, i)
                    if via_word is None:
                        assert via_el is None
                    else:
                        assert via_el is not None
                        assert via_el.word() == via_word
                        acted += 1
        assert acted


def test_tensor_component_sizes_add_up():
    singles = enumerate_kn((1,), "c", 2)
    pairs = tensor_highest_weights(singles, singles)
    sizes = []
    for x, y in pairs:
        g = build_graph(CrystalElement((x, y)))
        sizes.append(len(g))
    assert sorted(sizes) == [1, 5, 10]
    assert sum(sizes) == len(singles) ** 2
    assert tensor_highest_weights(iter(singles), (T for T in singles)) == pairs


def test_hw_decompose_includes_contracted_components():
    singles = enumerate_kn((1,), "c", 2)
    out = hw_decompose_tensor(singles, singles)
    assert out == {(-1, -1): 1, (0, -2): 1, (0, 0): 1}


def test_trivial_left_factor_reproduces_right_sources():
    empty = [t_lambda((), "c", 2)]
    singles = enumerate_kn((2,), "c", 2)
    out = hw_decompose_tensor(empty, singles)
    assert out == {(0, -2): 1}


# ---------------------------------------------------------------------------
# stabilized decompositions


def c_shape(lam, ell):
    return DominantShape("c", lam, ell)


def zero(lie_type, mu):
    """The label of a finite-support tensor factor."""
    return make_label(lie_type, mu)


def dominant(kappa):
    """The label of a dominant tensor factor."""
    return make_label(kappa.lie_type, (), kappa)


def test_stabilized_zero_zero_matches_littlewood_richardson():
    cases = [((1,), (1,), "c"), ((2,), (1,), "b"), ((1,), (1,), "d"), ((2,), (2,), "c")]
    for mu, nu, lie_type in cases:
        out = stabilized_decomposition(zero(lie_type, mu), zero(lie_type, nu))
        expected = {
            StableComponent(tuple(shape), DominantShape(lie_type, (), 0)): coeff
            for shape, coeff in lr_expand(mu, nu).items()
        }
        assert out == expected


def test_stabilized_posi_zero_example():
    out = stabilized_decomposition(dominant(c_shape((), 1)), zero("c", (1,)))
    assert out == {
        StableComponent((), c_shape((1,), 1)): 1,
        StableComponent((1,), c_shape((), 1)): 1,
    }


def test_stabilized_type_d_multiplicity_two():
    out = stabilized_decomposition(
        dominant(DominantShape("d", (1,), 1)), zero("d", (1, 1))
    )
    expected = {
        StableComponent((), DominantShape("d", (3,), 1)): 1,
        StableComponent((), DominantShape("d", (1,), 1)): 2,
        StableComponent((1,), DominantShape("d", (2,), 1)): 1,
        StableComponent((1,), DominantShape("d", (), 1)): 1,
        StableComponent((1,), DominantShape("d", (1, 1), 1)): 1,
        StableComponent((1, 1), DominantShape("d", (1,), 1)): 1,
    }
    assert out == expected


def test_stabilized_zero_posi_is_closed_form():
    out = stabilized_decomposition(zero("c", (2, 1)), dominant(c_shape((3, 1), 2)))
    assert out == {StableComponent((2, 1), c_shape((3, 1), 2)): 1}


def test_stabilized_trivial_factor():
    posi = dominant(c_shape((1,), 1))
    out = stabilized_decomposition(zero("c", ()), posi)
    assert out == {StableComponent((), c_shape((1,), 1)): 1}
    out = stabilized_decomposition(posi, zero("c", ()))
    assert out == {StableComponent((), c_shape((1,), 1)): 1}


def test_stabilized_rejects_two_dominant_factors():
    posi = dominant(c_shape((), 1))
    with pytest.raises(ValueError):
        stabilized_decomposition(posi, posi)


def sweep_walk(shape, lie_type, n):
    """Reference source walk: from the canonical filling, sweep the indices
    0..n-1, apply e_i eps_i times each, and sweep again until a sweep moves
    nothing.  Every step goes through tableau_op, which checks each vertex
    on the way against the full filling rules."""
    T = t_lambda(shape, lie_type, n)
    moved = True
    while moved:
        moved = False
        for i in range(n):
            steps = tableau_eps(T, i)
            for _ in range(steps):
                T = tableau_op(T, "e", i)
            moved = moved or steps > 0
    return T


DOMINANT_MODELS = [((), 1), ((1,), 1), ((2,), 1), ((1,), 2)]


def walk_shapes(lie_type, n):
    """Small shapes plus the rank-n models of a few dominant shapes, which
    are the shapes the stabilized scans take their sources from."""
    shapes = sweep_shapes(lie_type, n, 3)
    for lam, ell in DOMINANT_MODELS:
        shapes.append(truncation_shape(DominantShape(lie_type, lam, ell), n))
    return shapes


def graph_size_at_most(shape, lie_type, n, bound):
    try:
        enumerate_kn(shape, lie_type, n, max_count=bound)
    except ResourceCapError:
        return False
    return True


def test_closed_form_source_matches_the_sweep_walk():
    graphs = 0
    for lie_type in ("b", "c", "d"):
        for n in range(2, 7):
            for shape in walk_shapes(lie_type, n):
                source = crystal._model_source(shape, lie_type, n)
                assert source == sweep_walk(shape, lie_type, n), (lie_type, n, shape)
                assert all(tableau_op(source, "e", i) is None for i in range(n))
                if graph_size_at_most(shape, lie_type, n, 2_000):
                    sources = build_graph(t_lambda(shape, lie_type, n)).sources()
                    assert [v.factors[0] for v in sources] == [source]
                    graphs += 1
    assert graphs > 100


def test_closed_form_source_of_the_scanned_models_up_to_rank_12():
    for lie_type in ("b", "c", "d"):
        for n in range(7, 13):
            for lam, ell in DOMINANT_MODELS:
                shape = truncation_shape(DominantShape(lie_type, lam, ell), n)
                source = crystal._model_source(shape, lie_type, n)
                assert source == sweep_walk(shape, lie_type, n), (lie_type, n, shape)


def test_one_scan_validates_one_tableau(monkeypatch):
    calls = []
    checked = crystal.kn_validate

    def counted(T):
        calls.append(T)
        return checked(T)

    monkeypatch.setattr(crystal, "kn_validate", counted)
    left = dominant(DominantShape("c", (1,), 2))
    scan = crystal._scan_at_rank(
        left, zero("c", (2, 1)), 8, crystal.DEFAULT_MAX_VERTICES
    )
    assert scan and len(calls) == 1


def model_shape(label, n):
    """The rank-n model of a tensor side, spelled out by its kind."""
    if label.kappa.ell == 0:
        return label.mu
    return truncation_shape(label.kappa, n)


@functools.lru_cache(maxsize=None)
def full_listing(shape, lie_type, n, max_count):
    """Every filling from ``enumerate_kn`` as (eps_i of its ``reading_word``
    one index at a time, its weight), listed once per shape and rank."""
    return tuple(
        (tuple(word_eps(reading_word(y), i, lie_type, n) for i in range(n)), y.weight())
        for y in enumerate_kn(shape, lie_type, n, max_count)
    )


@functools.lru_cache(maxsize=None)
def brute_listing(shape, lie_type, n):
    """Every filling of a partition shape by brute force, listed like
    ``full_listing``: each product of column-ordered columns, kept when
    ``kn_validate`` accepts the tableau.  It shares no code with the column
    walk behind ``enumerate_kn`` and the scan."""
    letters = alphabet(lie_type, n)
    heights = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    columns = {
        h: [
            col
            for col in itertools.product(letters, repeat=h)
            if all(column_pair_ok(x, y, lie_type) for x, y in zip(col, col[1:]))
        ]
        for h in set(heights)
    }
    out = []
    for cols in itertools.product(*(columns[h] for h in heights)):
        rows = tuple(
            tuple(col[i] for col in cols if len(col) > i) for i in range(len(shape))
        )
        y = KNTableau(shape, rows, lie_type, n)
        if kn_validate(y):
            eps = tuple(word_eps(reading_word(y), i, lie_type, n) for i in range(n))
            out.append((eps, y.weight()))
    return tuple(out)


def reference_scan(left, right, n, listing):
    """The scan through whole tableaux: each filling of the right model in
    ``listing`` (full_listing or brute_listing) is kept when eps_i of its
    word is at most phi_i of the left source for every i."""
    lie_type = left.kappa.lie_type
    source = crystal._model_source(model_shape(left, n), lie_type, n)
    phi_x = [tableau_phi(source, i) for i in range(n)]
    tail = -left.kappa.ell - right.kappa.ell
    zero_size = sum(left.mu) + sum(right.mu)
    out = {}
    for eps_y, weight_y in listing(model_shape(right, n), lie_type, n):
        if not all(e <= p for e, p in zip(eps_y, phi_x)):
            continue
        window = (source.weight() + weight_y).window(n)
        if not crystal._is_stable_window(window, tail, lie_type, zero_size):
            continue
        label = crystal.window_to_component(window, tail, lie_type)
        out[label] = out.get(label, 0) + 1
    return out


@pytest.mark.parametrize("lie_type", ["b", "c", "d"])
def test_column_scan_matches_the_tableau_scan(lie_type):
    cap = crystal.DEFAULT_MAX_VERTICES
    rights = [zero(lie_type, mu) for mu in [(1,), (2,), (1, 1), (2, 1)]]
    lefts = [
        dominant(DominantShape(lie_type, lam, ell)) for lam, ell in DOMINANT_MODELS
    ] + [zero(lie_type, (1,))]
    labels = 0
    for n in (3, 4, 5, 6):
        for left in lefts:
            for right in rights:
                scan = crystal._scan_at_rank(left, right, n, cap)
                assert scan == reference_scan(left, right, n, brute_listing), (
                    n, left, right
                )
                labels += len(scan)
    assert labels > 100
    with pytest.raises(ResourceCapError):
        crystal._scan_at_rank(lefts[0], rights[-1], 3, 10)


# Right models of the reference sweep, with the rank each is scanned at:
# every partition of at most four boxes at rank 5, and the columns
# 1^5 and 1^6 at rank 7, where the full listing still takes milliseconds.
SWEEP_RIGHTS = [
    (mu, 5) for size in range(1, 5) for mu in partitions_of(size)
] + [((1,) * 5, 7), ((1,) * 6, 7)]


@pytest.mark.parametrize("lie_type", ["b", "c", "d"])
def test_pruned_scan_matches_the_full_listing(lie_type):
    """The pruned walk against the full listing at fixed ranks, for the
    dominant left models of levels 1-3 with at most two boxes and three
    finite left models.  The walk must also place fewer letters than the
    listing has fillings (as many, for one box): it passes a node cap of one
    below the listing's size, which a walk that lists every filling cannot."""
    lefts = [
        dominant(kappa) for ell in (1, 2, 3) for kappa in level_shapes(lie_type, ell, range(3))
    ] + [zero(lie_type, mu) for mu in [(1,), (2,), (1, 1)]]
    cap = crystal.DEFAULT_MAX_VERTICES
    components = 0
    for mu, n in SWEEP_RIGHTS:
        right = zero(lie_type, mu)
        size = len(full_listing(mu, lie_type, n, cap))
        nodes = size - 1 if sum(mu) > 1 else size
        for left in lefts:
            scan = crystal._scan_at_rank(left, right, n, nodes)
            listing = functools.partial(full_listing, max_count=cap)
            assert scan == reference_scan(left, right, n, listing), (n, left, right)
            components += sum(scan.values())
    assert components > 400, components


def test_label_translation_is_shared_across_ranks():
    # a component's window at the next rank gains a tail-valued coordinate,
    # which the weight drops, so both ranks read one table entry
    crystalline.clear_caches()
    low = crystal.window_to_component((0, -1, -1), -1, "c")
    high = crystal.window_to_component((0, -1, -1, -1), -1, "c")
    assert low == high == StableComponent((), DominantShape("c", (1,), 1))
    info = crystal._component.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_model_source_checks_its_result(monkeypatch):
    # a validator that rejects everything, or a signature that sees a
    # raising step, turns the closed form into a CrystalClosureError
    monkeypatch.setattr(crystal, "kn_validate", lambda T: False)
    with pytest.raises(CrystalClosureError) as info:
        crystal._model_source((1,), "c", 3)
    err = info.value
    assert (err.op, err.index, err.result.rows) == ("source", None, ((-3,),))
    monkeypatch.setattr(crystal, "kn_validate", lambda T: True)
    monkeypatch.setattr(
        crystal, "_signatures", lambda word, lie_type, n: (list(range(n)), [0] * n)
    )
    with pytest.raises(CrystalClosureError) as info:
        crystal._model_source((1,), "c", 3)
    assert (info.value.op, info.value.index) == ("source", None)
    assert str(info.value) == (
        "the closed-form source ((-3,),) is not highest weight under the "
        "type c rank 3 filling rules"
    )


def _scan_one_rank_low(monkeypatch):
    """Make every scan read the rank below the one asked for, and allow no
    escalation, so that a product stops at its first pair of ranks."""
    scan = crystal._scan_at_rank
    monkeypatch.setattr(crystal, "_SCAN_ESCALATIONS", 0)

    def low(left, right, n, cap):
        return scan(left, right, n - 1, cap)

    monkeypatch.setattr(crystal, "_scan_at_rank", low)


def test_non_stabilization_carries_its_evidence(monkeypatch):
    # the product starts at rank 3; read one rank low, its scans are those
    # of ranks 2 and 3, which disagree
    left, right = dominant(DominantShape("b", (1,), 1)), zero("b", (1,))
    scans = [
        crystal._scan_at_rank(left, right, n, crystal.DEFAULT_MAX_VERTICES)
        for n in (2, 3)
    ]
    _scan_one_rank_low(monkeypatch)
    with pytest.raises(StabilizationError) as info:
        stabilized_decomposition(left, right)
    err = info.value
    assert [err.first, err.second] == scans and err.first != err.second
    assert err.expected is None
    message = str(err)
    assert "\n" not in message and len(message) < 300
    assert message.startswith("decomposition did not stabilize by rank 4; ")
    assert "ranks 3 and 4 differ on 2 labels" in message
    assert "[1 | 1@1] 0/1" in message


def test_non_stabilization_against_littlewood_richardson(monkeypatch):
    # zero times zero also checks the scans against the LR expansion
    mu = zero("c", (1,))
    expected = {
        StableComponent(nu, DominantShape("c", (), 0)): 1 for nu in [(2,), (1, 1)]
    }
    # two scans that agree with each other but not with the LR labels
    monkeypatch.setattr(crystal, "_SCAN_ESCALATIONS", 0)
    monkeypatch.setattr(crystal, "_scan_at_rank", lambda *args: {})
    with pytest.raises(StabilizationError) as info:
        stabilized_decomposition(mu, mu)
    err = info.value
    assert (err.first, err.second, err.expected) == ({}, {}, expected)
    assert str(err) == (
        "decomposition did not stabilize by rank 5; ranks 4 and 5 agree but "
        "differ from the Littlewood-Richardson labels on 2 labels: "
        "[1,1 | 0@0] 0/1, [2 | 0@0] 0/1"
    )


def test_start_rank_above_the_scan_cap_scans_nothing(monkeypatch):
    # (1) x (1) starts at rank 4, so a cap at rank 4 leaves no pair to scan;
    # the error says so instead of claiming the scans did not stabilize
    scanned = []
    monkeypatch.setattr(crystal, "_SCAN_MAX_RANK", 4)
    monkeypatch.setattr(crystal, "_scan_at_rank", lambda *args: scanned.append(args))
    with pytest.raises(ResourceCapError) as info:
        stabilized_decomposition(zero("c", (1,)), zero("c", (1,)))
    assert not isinstance(info.value, StabilizationError) and not scanned
    assert str(info.value) == (
        "no rank was scanned: the product needs ranks 4 and 5, but the scan cap "
        "is rank 4"
    )
    # type d compares even ranks: the dominant factor 1@1 against (1,1) starts
    # at rank 5, made even
    monkeypatch.setattr(crystal, "_SCAN_MAX_RANK", 7)
    left = dominant(DominantShape("d", (1,), 1))
    with pytest.raises(ResourceCapError, match="ranks 6 and 8, but the scan cap is rank 7"):
        stabilized_decomposition(left, zero("d", (1, 1)))
    assert not scanned


def test_start_rank_covers_every_component(monkeypatch):
    """At the start rank and the next, the stability filter rejects no
    window and the two scans agree, so the first pair of ranks already holds
    every component: levels 1-2, |kappa| <= 2 and |mu| <= 3 in all three
    types, the column 1^4 against the factors 0@1 and 1@1 in all types, and
    the column 1^5 against them in type c (a start rank of 8 dropped all six
    components of 1^5 x 0@1 there)."""
    ranks, rejected = [], []
    scan, stable = crystal._scan_at_rank, crystal._is_stable_window

    def spy_scan(left, right, n, cap):
        ranks.append(n)
        return scan(left, right, n, cap)

    def spy_stable(*args):
        ok = stable(*args)
        if not ok:
            rejected.append(ranks[-1])
        return ok

    monkeypatch.setattr(crystal, "_scan_at_rank", spy_scan)
    monkeypatch.setattr(crystal, "_is_stable_window", spy_stable)
    for lie in ("b", "c", "d"):
        products = [
            (kappa, mu)
            for ell in (1, 2)
            for kappa in level_shapes(lie, ell, range(3))
            for size in range(1, 4)
            for mu in partitions_of(size)
        ]
        heights = (4, 5) if lie == "c" else (4,)
        products += [
            (DominantShape(lie, lam, 1), (1,) * h) for lam in ((), (1,)) for h in heights
        ]
        for kappa, mu in products:
            ranks.clear()
            out = stabilized_decomposition(dominant(kappa), zero(lie, mu))
            assert len(ranks) == 2 and not rejected and out, (lie, kappa, mu, rejected)


def test_tensor_factor_validation():
    # a label with both sides set, labels of two types, a mu that is not a
    # partition
    posi = dominant(c_shape((), 1))
    with pytest.raises(ValueError) as info:
        stabilized_decomposition(StableComponent((1,), c_shape((), 1)), zero("c", (1,)))
    assert not isinstance(info.value, InvalidShapeError)
    with pytest.raises(ValueError) as info:
        stabilized_decomposition(posi, zero("b", (1,)))
    assert not isinstance(info.value, InvalidShapeError)
    with pytest.raises(InvalidShapeError):
        stabilized_decomposition(posi, StableComponent((1, 2), c_shape((), 0)))
    with pytest.raises(InvalidShapeError):
        stabilized_decomposition(StableComponent((1, 2), c_shape((), 0)), posi)
