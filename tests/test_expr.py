"""Expression AST: parser, two evaluation routes, printer, pool, cursor."""

import random
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FROZEN_EVAL_CASES,
    OracleEvalError,
    random_env,
    random_tree,
    reference_eval,
    tree_to_text,
)
from patternkit.expr import (
    AtomPool,
    BidirectionalCursor,
    Binary,
    Circle,
    Context,
    CountVisitor,
    DrawVisitor,
    EvalError,
    EvalVisitor,
    ExportVisitor,
    Library,
    Number,
    ParseError,
    PrintVisitor,
    Rectangle,
    Variable,
    eval_expr,
    fold_expr,
    iter_nodes,
    parse_expr,
    preorder_nodes,
)

I64_MAX = 2**63 - 1


PARSE_ERRORS = [
    ("", "unexpected end of input", 0),
    ("   ", "unexpected end of input", 3),
    ("5 +", "unexpected end of input", 3),
    ("(1 + (\t", "unexpected end of input", 7),
    ("5 ++ 3", "unexpected character '+'", 3),
    ("Speed", "unexpected character 'S'", 0),
    ("_x", "unexpected character '_'", 0),
    ("1 + \N{GREEK SMALL LETTER ALPHA}", "unexpected character '\N{GREEK SMALL LETTER ALPHA}'", 4),
    ("2 * - 3", "unexpected character '-'", 4),
    ("(1 + 2", "expected ')'", 6),
    ("(1 2)", "expected ')'", 3),
    ("((1) x", "expected ')'", 5),
    ("1 + 2)", "unexpected trailing input", 5),
    ("5 5", "unexpected trailing input", 2),
    ("(1) (2)", "unexpected trailing input", 4),
    ("1 + 9223372036854775808", "integer literal out of 64-bit range", 4),
    ("2 * (-9223372036854775809)", "integer literal out of 64-bit range", 5),
    ("1" + " + 1" * 2000, "expression too long", 4096),
]

# every character class the grammar distinguishes, one non-ASCII letter included
EXPR_ALPHABET = "0123456789+-*/() \tabxyzAXZ_\N{LATIN SMALL LETTER E WITH ACUTE}"


def env_context(env: dict) -> Context:
    ctx = Context()
    for name, value in env.items():
        ctx = ctx.bind(name, value)
    return ctx


class TestFrozenCases:
    @pytest.mark.parametrize("text,expected", FROZEN_EVAL_CASES)
    def test_hand_computed_value(self, text, expected):
        assert eval_expr(parse_expr(text)) == expected

    def test_wire_example(self):
        assert eval_expr(parse_expr("5 + 3 - 2")) == 6


class TestParser:
    def test_precedence(self):
        assert eval_expr(parse_expr("2 + 3 * 4")) == 14

    def test_parentheses(self):
        assert eval_expr(parse_expr("(2 + 3) * 4")) == 20

    def test_left_associative_subtraction(self):
        assert eval_expr(parse_expr("10 - 4 - 3")) == 3

    def test_left_associative_division(self):
        assert eval_expr(parse_expr("100 / 5 / 2")) == 10

    def test_negative_literal_positions(self):
        assert eval_expr(parse_expr("-5")) == -5
        assert eval_expr(parse_expr("7 - -2")) == 9
        assert eval_expr(parse_expr("(-3) * 2")) == -6
        assert eval_expr(parse_expr("2 * -3")) == -6

    def test_minus_between_atoms_is_operator(self):
        # "5-3" subtracts; the '-' does not glue onto the 3
        assert eval_expr(parse_expr("5-3")) == 2

    def test_identifier_charset(self):
        ctx = env_context({"speed_2x": 4})
        assert eval_expr(parse_expr("speed_2x * 2"), ctx) == 8

    # ids keep the "text-offset" form they had before the message was pinned;
    # the one over-long text is cut to 40 characters
    @pytest.mark.parametrize("text,message,offset", PARSE_ERRORS,
                             ids=["%s-%d" % (text[:40], offset) for text, _, offset in PARSE_ERRORS])
    def test_error_byte_offsets(self, text, message, offset):
        for parse in (parse_expr, fold_expr):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.offset == offset
            assert str(info.value) == "%s at offset %d" % (message, offset)

    @pytest.mark.parametrize("text,printed", [
        ("(" * 2000 + "1" + ")" * 2000, "1"),
        ("1+(" * 900 + "1" + ")" * 900, "(1 + " * 900 + "1" + ")" * 900),
        ("(" * 600 + "2" + " * 3)" * 600, "(" * 600 + "2" + " * 3)" * 600),
    ], ids=["2000-parens", "900-right-nested-sums", "600-left-nested-products"])
    def test_deep_nesting_parses(self, text, printed):
        # PrintVisitor recurses, so print the deep tree with an explicit stack
        out, stack = [], [parse_expr(text)]
        while stack:
            top = stack.pop()
            if isinstance(top, str):
                out.append(top)
            elif isinstance(top, Binary):
                stack += [")", top.right, " %s " % top.op, top.left, "("]
            else:
                out.append(top.accept(PrintVisitor()))
        assert "".join(out) == printed

    @settings(max_examples=400)
    @given(st.text(alphabet=EXPR_ALPHABET, max_size=24))
    def test_any_text_parses_to_a_printable_tree_or_fails_cleanly(self, text):
        try:
            node = parse_expr(text)
        except ParseError as error:
            assert 0 <= error.offset <= len(text.encode("utf-8"))
            return
        assert parse_expr(node.accept(PrintVisitor())) == node

    def test_literal_out_of_i64_range(self):
        with pytest.raises(ParseError):
            parse_expr(str(I64_MAX + 1))
        with pytest.raises(ParseError):
            parse_expr("-9223372036854775809")

    def test_extreme_literals_parse(self):
        assert eval_expr(parse_expr(str(I64_MAX))) == I64_MAX
        assert eval_expr(parse_expr("-9223372036854775808")) == -(2**63)

    def test_oversized_input_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("1" + " + 1" * 2000)


class TestEvaluation:
    def test_truncating_division(self):
        assert eval_expr(parse_expr("10 / 3")) == 3
        assert eval_expr(parse_expr("-10 / 3")) == -3
        assert eval_expr(parse_expr("10 / -3")) == -3
        assert eval_expr(parse_expr("-10 / -3")) == 3
        assert eval_expr(parse_expr("-1 / 2")) == 0

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("1 / 0"))

    def test_overflow_checked(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("9223372036854775807 + 1"))
        with pytest.raises(EvalError):
            eval_expr(parse_expr("-9223372036854775808 - 1"))
        with pytest.raises(EvalError):
            eval_expr(parse_expr("4294967296 * 4294967296"))
        # i64 min / -1 is the one division that overflows
        with pytest.raises(EvalError):
            eval_expr(parse_expr("-9223372036854775808 / -1"))

    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("missing + 1"))

    def test_context_binding_is_persistent(self):
        ctx = Context().bind("a", 1)
        ctx2 = ctx.bind("b", 2)
        assert eval_expr(parse_expr("a + b"), ctx2) == 3
        with pytest.raises(EvalError):
            eval_expr(parse_expr("b"), ctx)

    def test_rebinding_shadows(self):
        ctx = Context().bind("x", 1).bind("x", 9)
        assert eval_expr(parse_expr("x"), ctx) == 9

    @pytest.mark.parametrize("text,value", [
        ("+".join(["1"] * 2048), 2048),
        ("1-(" * 1023 + "1" + ")" * 1023, 0),
        ("(" * 1023 + "2" + "*1)" * 1023, 2),
    ], ids=["2048-left-spine", "1023-right-nested-differences", "1023-left-nested-products"])
    def test_trees_deeper_than_the_call_stack_evaluate(self, text, value):
        assert eval_expr(parse_expr(text)) == value
        assert fold_expr(text) == value

    def test_a_deep_tree_raises_its_leftmost_error(self):
        # the walk fails where the recursive visitor would: left first
        deep = "+".join(["1"] * 2000)
        with pytest.raises(EvalError, match="unbound variable 'nope'"):
            eval_expr(parse_expr("nope + 1/0 + " + deep))
        with pytest.raises(EvalError, match="division by zero"):
            eval_expr(parse_expr("1/0 + nope + " + deep))

    def test_the_heap_walk_agrees_with_the_recursive_walk(self):
        # eval_expr walks on an explicit stack; EvalVisitor recurses
        rng = random.Random(20261018)
        for _ in range(500):
            node = parse_expr(tree_to_text(random_tree(rng, max_depth=5)))
            ctx = env_context(random_env(rng))
            try:
                expected = node.accept(EvalVisitor(ctx))
            except EvalError as exc:
                with pytest.raises(EvalError, match="^%s$" % re.escape(str(exc))):
                    eval_expr(node, ctx)
                continue
            assert eval_expr(node, ctx) == expected


def test_random_trees_match_reference_evaluator():
    """Both evaluation routes agree with the independent oracle, including
    on which inputs fail."""
    rng = random.Random(20260814)
    pool = AtomPool()
    for _ in range(1000):
        tree = random_tree(rng, max_depth=5)
        env = random_env(rng)
        text = tree_to_text(tree)
        node = parse_expr(text, pool)
        ctx = env_context(env)
        try:
            expected = reference_eval(tree, env)
        except OracleEvalError:
            with pytest.raises(EvalError):
                eval_expr(node, ctx)
            with pytest.raises(EvalError):
                node.accept(EvalVisitor(ctx))
            continue
        assert eval_expr(node, ctx) == expected
        assert node.accept(EvalVisitor(ctx)) == expected


def outcome(evaluate, text, ctx):
    """The value, or the failure's type, message and parse offset."""
    try:
        return evaluate(text, ctx)
    except (ParseError, EvalError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def tree_walk(text, ctx):
    return eval_expr(parse_expr(text), ctx)


BOUND = env_context({"a": 3, "b": -7, "x": I64_MAX, "ab": 0, "z": -(2**63)})


class TestFold:
    """fold_expr, the server's one-pass EVAL, against the tree walk."""

    @settings(max_examples=600)
    @given(st.text(alphabet=EXPR_ALPHABET, max_size=24))
    def test_any_text_folds_as_the_tree_walks(self, text):
        assert outcome(fold_expr, text, BOUND) == outcome(tree_walk, text, BOUND)

    @pytest.mark.parametrize("text,message,offset", [
        ("x + (", "unexpected end of input", 5),
        ("1 / 0 +", "unexpected end of input", 7),
        ("9223372036854775807 * 2 )", "unexpected trailing input", 24),
    ], ids=["unbound-then-eof", "division-by-zero-then-eof", "overflow-then-stray-paren"])
    def test_a_parse_error_wins_over_an_earlier_eval_error(self, text, message, offset):
        assert outcome(fold_expr, text, Context()) == (
            ParseError, "%s at offset %d" % (message, offset), offset)

    @pytest.mark.parametrize("text,message", [
        ("nope + 1/0", "unbound variable 'nope'"),
        ("1/0 + nope", "division by zero"),
        ("(a + nope) * (1/0)", "unbound variable 'nope'"),
        ("x + 1 + nope", "integer overflow in +"),
        ("a * (x + a) - 1/0", "integer overflow in +"),
    ])
    def test_the_first_eval_error_in_post_order_wins(self, text, message):
        assert outcome(fold_expr, text, BOUND) == (EvalError, message, None)
        assert outcome(tree_walk, text, BOUND) == (EvalError, message, None)


class TestPrinter:
    def test_canonical_form(self):
        assert parse_expr("5 + 3 - 2").accept(PrintVisitor()) == "((5 + 3) - 2)"

    def test_leaves_print_bare(self):
        assert parse_expr("42").accept(PrintVisitor()) == "42"
        assert parse_expr("speed").accept(PrintVisitor()) == "speed"

    def test_print_parse_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(300):
            tree = random_tree(rng, max_depth=4)
            node = parse_expr(tree_to_text(tree))
            printed = node.accept(PrintVisitor())
            again = parse_expr(printed)
            assert again == node
            assert again.accept(PrintVisitor()) == printed


class TestVisitors:
    def test_count_visitor(self):
        node = parse_expr("(1 + 2) * (3 - x)")
        assert node.accept(CountVisitor()) == 7

    def test_preorder_nodes(self):
        node = parse_expr("1 + 2 * 3")
        kinds = [type(n).__name__ for n in preorder_nodes(node)]
        assert kinds == ["Binary", "Number", "Binary", "Number", "Number"]

    def test_iter_nodes_walks_a_tree_deeper_than_the_call_stack(self):
        node = parse_expr("+".join(["1"] * 2048))  # a left spine 2047 deep
        nodes = list(iter_nodes(node))
        assert len(nodes) == 4095
        spine = [node]
        while isinstance(spine[-1], Binary):
            spine.append(spine[-1].left)
        # pre-order: down the left spine, then each right leaf on the way up
        assert nodes[:2048] == spine
        assert nodes[2048:] == [Number(1)] * 2047

    def test_shape_visitors_double_dispatch(self):
        shapes = [Circle(), Rectangle()]
        draw = DrawVisitor()
        export = ExportVisitor()
        assert [s.accept(draw) for s in shapes] == [
            "Drawing a circle",
            "Drawing a rectangle",
        ]
        assert [s.accept(export) for s in shapes] == [
            "Exporting a circle to SVG",
            "Exporting a rectangle to PNG",
        ]


class TestAtomPool:
    def test_interning_identity(self):
        pool = AtomPool()
        assert pool.intern(5) is pool.intern(5)
        assert pool.intern("speed") is pool.intern("speed")
        assert pool.intern(5) is not pool.intern(6)

    def test_numbers_and_variables_distinct(self):
        pool = AtomPool()
        assert isinstance(pool.intern(1), Number)
        assert isinstance(pool.intern("a"), Variable)

    def test_pool_size_bounded_by_distinct_keys(self):
        pool = AtomPool()
        rng = random.Random(13)
        keys = [chr(ord("a") + i) for i in range(26)]
        for _ in range(1000):
            pool.intern(rng.choice(keys))
        assert pool.size() <= 26

    def test_parser_reuses_pool_atoms(self):
        pool = AtomPool()
        first = parse_expr("x + x", pool)
        second = parse_expr("x", pool)
        assert first.left is first.right
        assert first.left is second

    def test_concurrent_interning_yields_one_object(self):
        pool = AtomPool()
        results = []
        barrier = threading.Barrier(16)

        def worker():
            barrier.wait()
            results.append(pool.intern("shared"))

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(map(id, results))) == 1
        assert pool.size() == 1


class TestBidirectionalCursor:
    def test_forward_then_exhausted(self):
        cur = BidirectionalCursor(["a", "b"])
        assert cur.next() == "a"
        assert cur.next() == "b"
        with pytest.raises(StopIteration):
            cur.next()

    def test_previous_at_start(self):
        cur = BidirectionalCursor(["a"])
        with pytest.raises(StopIteration):
            cur.previous()

    def test_interleaved_directions(self):
        cur = BidirectionalCursor([1, 2, 3])
        assert cur.next() == 1
        assert cur.next() == 2
        assert cur.previous() == 2
        assert cur.previous() == 1
        with pytest.raises(StopIteration):
            cur.previous()
        assert cur.next() == 1

    def test_is_an_iterator(self):
        assert list(BidirectionalCursor("xyz")) == ["x", "y", "z"]

    def test_library_iterates_in_insertion_order(self):
        lib = Library()
        for title in ("Design Patterns", "Refactoring", "Clean Code"):
            lib.add_book(title)
        cursor = iter(lib)
        assert isinstance(cursor, BidirectionalCursor)
        assert list(cursor) == ["Design Patterns", "Refactoring", "Clean Code"]


def test_expr_nodes_are_immutable():
    node = parse_expr("1 + 2")
    with pytest.raises(Exception):
        node.op = "-"
    with pytest.raises(Exception):
        Number(1).value = 2


def test_binary_equality_is_structural():
    assert Binary("+", Number(1), Number(2)) == Binary("+", Number(1), Number(2))
    assert Binary("+", Number(1), Number(2)) != Binary("-", Number(1), Number(2))
