"""Discount strategies, the media-player state table, and doc pipelines."""

import random

import pytest

from oracles import expected_discount
from patternkit.policies import (
    DOC_KINDS,
    PAUSED,
    PLAYING,
    STOPPED,
    CompositeDiscount,
    FixedDiscount,
    MediaPlayer,
    NoDiscount,
    PausedState,
    PdfPipeline,
    PercentageDiscount,
    PlayingState,
    StoppedState,
    WordPipeline,
    apply_discount,
    parse_strategy,
    player_press,
    prepare_document,
)
from patternkit.wire import format_money


class TestDiscountStrategies:
    def test_none_keeps_price(self):
        assert apply_discount(NoDiscount(), 10000) == 10000

    def test_percentage(self):
        assert apply_discount(PercentageDiscount(10), 10000) == 9000

    def test_percentage_floors_toward_zero(self):
        # 3% of 101 minor units is 3.03; the discount keeps whole minor units
        assert apply_discount(PercentageDiscount(3), 101) == 98

    def test_fixed_subtracts_minor_units(self):
        assert apply_discount(FixedDiscount(2000), 10000) == 8000

    def test_fixed_floors_at_zero(self):
        assert apply_discount(FixedDiscount(2000), 1500) == 0

    def test_composite_applies_left_to_right(self):
        combo = CompositeDiscount([PercentageDiscount(25), FixedDiscount(500)])
        assert apply_discount(combo, 10000) == 7000
        reversed_combo = CompositeDiscount([FixedDiscount(500), PercentageDiscount(25)])
        assert apply_discount(reversed_combo, 10000) == 7125

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            apply_discount(NoDiscount(), -1)

    @pytest.mark.parametrize("percent", [-1, 101])
    def test_percent_bounds(self, percent):
        with pytest.raises(ValueError, match=r"^pct must be in 0\.\.100$"):
            PercentageDiscount(percent)

    def test_fixed_amount_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="^fixed discount must be >= 0$"):
            FixedDiscount(-1)

    def test_boundary_percentages(self):
        assert apply_discount(PercentageDiscount(0), 777) == 777
        assert apply_discount(PercentageDiscount(100), 777) == 0

    def test_wire_examples_in_minor_units(self):
        price = 100 * 100
        assert format_money(apply_discount(parse_strategy("pct:10"), price)) == "90.0"
        assert format_money(apply_discount(parse_strategy("fixed:20"), price)) == "80.0"
        assert format_money(apply_discount(parse_strategy("none"), price)) == "100.0"

    def test_random_strategies_match_oracle(self):
        rng = random.Random(2718)
        for _ in range(500):
            price = rng.randrange(0, 2_000_000)
            kind = rng.choice(["none", "pct", "fixed", "combo"])
            if kind == "none":
                strategy, expected = NoDiscount(), expected_discount(price, "none", 0)
            elif kind == "pct":
                pct = rng.randrange(0, 101)
                strategy = PercentageDiscount(pct)
                expected = expected_discount(price, "pct", pct)
            elif kind == "fixed":
                amount = rng.randrange(0, 3_000_000)
                strategy = FixedDiscount(amount)
                expected = expected_discount(price, "fixed", amount)
            else:
                pct = rng.randrange(0, 101)
                amount = rng.randrange(0, 3_000_000)
                strategy = CompositeDiscount(
                    [PercentageDiscount(pct), FixedDiscount(amount)]
                )
                expected = expected_discount(
                    expected_discount(price, "pct", pct), "fixed", amount
                )
            assert apply_discount(strategy, price) == expected


class TestParseStrategy:
    def test_none(self):
        assert isinstance(parse_strategy("none"), NoDiscount)

    def test_pct(self):
        strategy = parse_strategy("pct:10")
        assert apply_discount(strategy, 1000) == 900

    def test_fixed_amount_is_major_units(self):
        # "fixed:20" means 20 whole currency units = 2000 minor units
        strategy = parse_strategy("fixed:20")
        assert apply_discount(strategy, 10000) == 8000

    def test_combo(self):
        strategy = parse_strategy("pct:25+fixed:5")
        assert apply_discount(strategy, 10000) == 7000

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "nonsense",
            "pct",
            "pct:",
            "pct:x",
            "pct:-1",
            "pct:101",
            "fixed:-2",
            "fixed:1.5",
            "fixed:5+pct:1",
            "pct:5+",
            "pct:5+none",
            "none+none",
            "pct:5+fixed:1+fixed:1",
            "PCT:5",
            " pct:5",
        ],
    )
    def test_rejects_bad_grammar(self, text):
        with pytest.raises(ValueError):
            parse_strategy(text)

    def test_boundary_values_accepted(self):
        assert apply_discount(parse_strategy("pct:0"), 500) == 500
        assert apply_discount(parse_strategy("pct:100"), 500) == 0
        assert apply_discount(parse_strategy("fixed:0"), 500) == 500


PLAYER_TABLE = [
    (STOPPED, "play", "Starting playback.", PlayingState),
    (STOPPED, "pause", "Can't pause. The player is stopped.", StoppedState),
    (STOPPED, "stop", "Already stopped.", StoppedState),
    (PLAYING, "play", "Already playing.", PlayingState),
    (PLAYING, "pause", "Pausing the player.", PausedState),
    (PLAYING, "stop", "Stopping the player.", StoppedState),
    (PAUSED, "play", "Resuming playback.", PlayingState),
    (PAUSED, "pause", "Already paused.", PausedState),
    (PAUSED, "stop", "Stopping the player.", StoppedState),
]


class TestPlayerStateTable:
    @pytest.mark.parametrize("state,button,message,next_type", PLAYER_TABLE)
    def test_cell(self, state, button, message, next_type):
        got_message, got_state = player_press(state, button)
        assert got_message == message
        assert isinstance(got_state, next_type)

    def test_table_is_exhaustive(self):
        cells = {(type(s).__name__, b) for s, b, _, _ in PLAYER_TABLE}
        assert len(cells) == 9

    def test_unknown_button(self):
        with pytest.raises(ValueError):
            player_press(STOPPED, "rewind")

    def test_media_player_walks_the_table(self):
        player = MediaPlayer()
        trace = [player.press(b) for b in ("play", "pause", "play", "stop", "stop")]
        assert trace == [
            "Starting playback.",
            "Pausing the player.",
            "Resuming playback.",
            "Stopping the player.",
            "Already stopped.",
        ]
        assert isinstance(player.state, StoppedState)


class TestDocPipelines:
    def test_pdf_trace(self):
        assert prepare_document("pdf") == [
            "Opening a PDF document.",
            "Writing content to the PDF document.",
            "Formatting the PDF document content.",
            "Saving the document.",
        ]

    def test_word_trace(self):
        assert prepare_document("word") == [
            "Opening a Word document.",
            "Writing content to the Word document.",
            "Formatting the Word document content.",
            "Saving the document.",
        ]

    def test_save_step_is_shared_by_the_base_class(self):
        assert prepare_document("pdf")[-1] == prepare_document("word")[-1]
        assert PdfPipeline.save_file is WordPipeline.save_file

    def test_kinds_registry(self):
        assert set(DOC_KINDS) == {"pdf", "word"}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            prepare_document("markdown")

    def test_sink_receives_lines_in_order(self):
        lines = []
        returned = prepare_document("pdf", sink=lines.append)
        assert lines == returned
