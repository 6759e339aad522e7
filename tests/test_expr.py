"""Expression AST: parser, two evaluation routes, printer, pool, cursor."""

import random
import re
import threading
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import (
    FROZEN_BOUND_EVAL_CASES,
    FROZEN_EVAL_CASES,
    OracleEvalError,
    random_env,
    random_tree,
    reference_eval,
    reference_fold,
    tree_to_text,
)
from patternkit import expr
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
    # in operator position "-<digits>" is '-' then a literal, and the range
    # check and the offset are those of the digits alone
    ("4-99999999999999999999", "integer literal out of 64-bit range", 2),
    ("1 -99999999999999999999", "integer literal out of 64-bit range", 3),
    ("(1)-9223372036854775808", "integer literal out of 64-bit range", 4),
    # only space and tab are blanks
    ("1\r+2", "unexpected trailing input", 1),
    ("1 +\x0b2", "unexpected character '\\x0b'", 3),
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

    @pytest.mark.parametrize("text,env,expected", FROZEN_BOUND_EVAL_CASES)
    def test_hand_computed_value_under_bindings(self, text, env, expected):
        ctx = env_context(env)
        assert eval_expr(parse_expr(text), ctx) == expected
        assert fold_expr(text, ctx) == expected

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

    # ids keep the "text-offset" form they had before the message was pinned
    @pytest.mark.parametrize("text,message,offset", PARSE_ERRORS,
                             ids=["%s-%d" % (text, offset) for text, _, offset in PARSE_ERRORS])
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

    @settings(max_examples=4 * settings.default.max_examples)
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

    def test_text_longer_than_a_request_line_parses_and_folds(self):
        """The interpreter takes text of any length; only the server's
        framing bounds an EVAL line."""
        text = "1" + " + 1" * 2000
        assert len(text.encode("utf-8")) == 8001
        assert eval_expr(parse_expr(text)) == 2001
        assert fold_expr(text, Context()) == 2001


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


def reference_outcome(evaluate, text, ctx):
    """`outcome` in the form `oracles.reference_fold` gives it."""
    try:
        return evaluate(text, ctx)
    except ParseError as exc:
        message = str(exc).rsplit(" at offset ", 1)[0]
        assert str(exc) == "%s at offset %d" % (message, exc.offset)
        return "parse", message, exc.offset
    except EvalError as exc:
        return "eval", str(exc), None


# EXPR_ALPHABET, a carriage return and a vertical tab (neither is a blank),
# and runs of 19 to 21 digits, which straddle the 64-bit range, bare or
# glued to a '-'
DIGIT_RUNS = st.text("0123456789", min_size=19, max_size=21)
TEXT_PIECES = st.one_of(
    st.sampled_from(EXPR_ALPHABET + "\r\x0b"),
    DIGIT_RUNS,
    DIGIT_RUNS.map("-".__add__),
)


BOUND = env_context({"a": 3, "b": -7, "x": I64_MAX, "ab": 0, "z": -(2**63)})


class TestFold:
    """fold_expr, the server's one-pass EVAL, against the tree walk."""

    @settings(max_examples=6 * settings.default.max_examples)
    @given(st.text(alphabet=EXPR_ALPHABET, max_size=24))
    def test_any_text_folds_as_the_tree_walks(self, text):
        assert outcome(fold_expr, text, BOUND) == outcome(tree_walk, text, BOUND)

    @settings(max_examples=6 * settings.default.max_examples)
    @given(st.lists(TEXT_PIECES, max_size=24).map("".join))
    def test_any_text_evaluates_as_the_text_reference(self, text):
        expected = reference_fold(text, BOUND.bindings)
        assert reference_outcome(fold_expr, text, BOUND) == expected
        assert reference_outcome(tree_walk, text, BOUND) == expected

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


# Spaced lines with a word of more than one token, the word in factor
# position and then in operator position, and what EVAL answers for each
MULTI_TOKEN_WORDS = [
    ("1 + 12ab + 1", ("parse", "unexpected trailing input", 6)),
    ("2 12ab + 1", ("parse", "unexpected trailing input", 2)),
    ("1 + 1_0 + 1", ("parse", "unexpected trailing input", 5)),
    ("2 1_0 + 1", ("parse", "unexpected trailing input", 2)),
    ("1 + -x + 1", ("parse", "unexpected character '-'", 4)),
    ("2 -x + 1", 2 - I64_MAX + 1),
    ("1 + a-b + 1", 12),
    ("2 a-b + 1", ("parse", "unexpected trailing input", 2)),
    ("1 + 3*4 + 1", 14),
    ("2 3*4 + 1", ("parse", "unexpected trailing input", 2)),
    ("1 + +5 + 1", ("parse", "unexpected character '+'", 4)),
    ("2 +5 + 1", 8),
    ("1 + --5 + 1", ("parse", "unexpected character '-'", 4)),
    ("2 --5 + 1", 8),
    ("1 + -1_0 + 1", ("parse", "unexpected trailing input", 6)),
    ("2 -1_0 + 1", ("parse", "unexpected trailing input", 4)),
    ("1 + -5*3 + 1", -13),
    ("2 -5*3 + 1", -12),
]

# Spaced lines whose errors come in an order that matters: a ParseError
# after an EvalError, or an EvalError before or after a word of more than
# one token
ERROR_ORDER = [
    ("1 / 0 + 12ab", ("parse", "unexpected trailing input", 10)),
    ("1 / 0 + 3*4 )", ("parse", "unexpected trailing input", 12)),
    ("x + 1 + 1_0", ("parse", "unexpected trailing input", 9)),
    ("1/0 + (2 -x", ("parse", "expected ')'", 11)),
    ("a * (x + a) - 1/0", ("eval", "integer overflow in +", None)),
    ("nope + 1 + 3*4", ("eval", "unbound variable 'nope'", None)),
    ("nope * (1 +5) - 2", ("eval", "unbound variable 'nope'", None)),
    ("3*4 / 0", ("eval", "division by zero", None)),
    ("1 +5 + nope", ("eval", "unbound variable 'nope'", None)),
    ("1 + 1 / 0 + 3*4", ("eval", "division by zero", None)),
]


# Lines of the characters that a line may hold and still be split at its
# blanks, and of runs of 19 to 21 digits, bare or glued to a '-'.  Each is a
# factor and an operator in turn, most often one token with a blank after
# it, so that most lines are answered from their words
SPLIT_ALPHABET = "0123456789+-*/() \tabxz_"
SPLIT_PIECES = st.one_of(st.sampled_from(SPLIT_ALPHABET), DIGIT_RUNS, DIGIT_RUNS.map("-".__add__))


@st.composite
def split_texts(draw):
    def piece(tokens):
        return draw(SPLIT_PIECES if draw(st.sampled_from(range(8))) == 7 else st.sampled_from(tokens))

    def blank():
        return draw(st.sampled_from((" ", "\t", "", " ", " ", " ")))

    pairs = draw(st.integers(0, 8))
    factors = ("7", "42", "-3", "a", "b", "x", "ab", "z")
    return "".join(piece(factors) + blank() + piece("+-*/") + blank() for _ in range(pairs)) + piece(factors)


def split_words(text):
    """The words `fold_expr` answered `text` from, when it answered without
    the token regex's `findall`; else None."""
    walked, scans = [], []
    walk, scan = expr._walk, expr._TOKEN

    def recording_walk(tokens, *hooks):
        walked.append(tokens)
        return walk(tokens, *hooks)

    class RecordingScan:
        finditer = scan.finditer

        def findall(self, line):
            scans.append(line)
            return scan.findall(line)

    with mock.patch.object(expr, "_walk", recording_walk), \
            mock.patch.object(expr, "_TOKEN", RecordingScan()):
        outcome(fold_expr, text, BOUND)
    return None if scans else walked[0]


class TestSplitWords:
    """A line split at its blanks answers as the token regex's tokens do."""

    @settings(max_examples=6 * settings.default.max_examples)
    @given(split_texts())
    def test_any_split_text_evaluates_as_the_text_reference(self, text):
        expected = reference_fold(text, BOUND.bindings)
        assert reference_outcome(fold_expr, text, BOUND) == expected
        assert reference_outcome(tree_walk, text, BOUND) == expected

    @settings(max_examples=2 * settings.default.max_examples)
    @given(split_texts())
    def test_the_words_of_a_split_answer_are_the_regex_tokens(self, text):
        words = split_words(text)
        event("split, answered from the words" if words is not None else
              "split, answered from the regex" if " " in text or "\t" in text else "not split")
        if words is not None:
            assert words == expr._TOKEN.findall(text)

    @pytest.mark.parametrize("text", ["1 + 2 * (3 - x)", "nope + 1 / 0", "\t-5 * ( a )"])
    def test_a_spaced_line_is_answered_from_its_words(self, text):
        assert split_words(text) == expr._TOKEN.findall(text)

    @pytest.mark.parametrize("text", ["1+2", "1 + 12ab", "1 / 0 + 3*4", "1 + Speed", "1 +\x0b2"])
    def test_other_lines_are_answered_from_the_regex(self, text):
        assert split_words(text) is None

    def test_printed_trees_are_answered_from_their_words(self):
        rng = random.Random(20261020)
        for _ in range(300):
            text = tree_to_text(random_tree(rng, max_depth=5))
            # a leaf prints with no blank, and a line with none is not split
            expected = expr._TOKEN.findall(text) if " " in text else None
            assert split_words(text) == expected, text

    @pytest.mark.parametrize("text,expected", MULTI_TOKEN_WORDS + ERROR_ORDER,
                             ids=[text for text, _ in MULTI_TOKEN_WORDS + ERROR_ORDER])
    def test_a_word_of_several_tokens_answers_as_its_tokens(self, text, expected):
        assert reference_fold(text, BOUND.bindings) == expected
        assert reference_outcome(fold_expr, text, BOUND) == expected
        assert reference_outcome(tree_walk, text, BOUND) == expected


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
