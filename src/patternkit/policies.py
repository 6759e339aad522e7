"""Pricing strategies, the media-player state machine, and the template
document pipeline."""

from __future__ import annotations

from .wire import parse_i64


# Strategy: discounts over money in minor units.


class DiscountStrategy:
    def apply(self, price: int) -> int:
        raise NotImplementedError


class NoDiscount(DiscountStrategy):
    def apply(self, price: int) -> int:
        return price


class PercentageDiscount(DiscountStrategy):
    def __init__(self, percent: int):
        if not 0 <= percent <= 100:
            raise ValueError("percent must be in 0..100")
        self.percent = percent

    def apply(self, price: int) -> int:
        return price - (price * self.percent) // 100


class FixedDiscount(DiscountStrategy):
    def __init__(self, amount: int):
        if amount < 0:
            raise ValueError("fixed discount must be >= 0")
        self.amount = amount

    def apply(self, price: int) -> int:
        return max(price - self.amount, 0)


class CompositeDiscount(DiscountStrategy):
    """Applies its parts left to right."""

    def __init__(self, parts):
        self.parts = list(parts)

    def apply(self, price: int) -> int:
        for part in self.parts:
            price = part.apply(price)
        return price


def apply_discount(strategy: DiscountStrategy, price: int) -> int:
    if price < 0:
        raise ValueError("price must be >= 0")
    return strategy.apply(price)


def parse_strategy(text: str) -> DiscountStrategy:
    """Wire grammar: none | pct:<0-100> | fixed:<int> | pct:<p>+fixed:<d>.

    Amounts on the wire are major units; fixed discounts convert to minor
    units here.
    """
    if text == "none":
        return NoDiscount()
    parts = text.split("+")
    if len(parts) == 1:
        return _parse_simple(parts[0])
    if len(parts) == 2 and parts[0].startswith("pct:") and parts[1].startswith("fixed:"):
        return CompositeDiscount([_parse_simple(parts[0]), _parse_simple(parts[1])])
    raise ValueError("bad strategy %r" % text)


def _parse_simple(token: str) -> DiscountStrategy:
    kind, _, raw = token.partition(":")
    try:
        value = parse_i64(raw)
    except ValueError:
        raise ValueError("bad strategy %r" % token) from None
    if kind == "pct":
        if not 0 <= value <= 100:
            raise ValueError("pct must be in 0..100")
        return PercentageDiscount(value)
    if kind == "fixed":
        if value < 0:
            raise ValueError("fixed discount must be >= 0")
        return FixedDiscount(value * 100)
    raise ValueError("bad strategy %r" % token)


# State: the three-state media player with its exact transition table.


class PlayerState:
    name = ""

    def press_play(self):
        raise NotImplementedError

    def press_pause(self):
        raise NotImplementedError

    def press_stop(self):
        raise NotImplementedError


class StoppedState(PlayerState):
    name = "stopped"

    def press_play(self):
        return "Starting playback.", PLAYING

    def press_pause(self):
        return "Can't pause. The player is stopped.", STOPPED

    def press_stop(self):
        return "Already stopped.", STOPPED


class PlayingState(PlayerState):
    name = "playing"

    def press_play(self):
        return "Already playing.", PLAYING

    def press_pause(self):
        return "Pausing the player.", PAUSED

    def press_stop(self):
        return "Stopping the player.", STOPPED


class PausedState(PlayerState):
    name = "paused"

    def press_play(self):
        return "Resuming playback.", PLAYING

    def press_pause(self):
        return "Already paused.", PAUSED

    def press_stop(self):
        return "Stopping the player.", STOPPED


# States hold no data, so one shared instance of each is enough.
STOPPED = StoppedState()
PLAYING = PlayingState()
PAUSED = PausedState()

BUTTONS = ("play", "pause", "stop")


def player_press(state: PlayerState, button: str) -> tuple[str, PlayerState]:
    """Total over the nine (state, button) cells; returns (message, next)."""
    if button == "play":
        return state.press_play()
    if button == "pause":
        return state.press_pause()
    if button == "stop":
        return state.press_stop()
    raise ValueError("unknown button %r" % button)


class MediaPlayer:
    """Context object: starts stopped, delegates every press to its state."""

    def __init__(self):
        self.state: PlayerState = STOPPED

    def press(self, button: str) -> str:
        message, self.state = player_press(self.state, button)
        return message


# Template method: the four-step document pipeline.


class DocPipeline:
    """Fixed skeleton open -> write -> format -> save; bodies vary by kind."""

    kind_label = ""

    def prepare(self, sink=None) -> list[str]:
        lines = [
            self.open_file(),
            self.write_content(),
            self.format_content(),
            self.save_file(),
        ]
        if sink is not None:
            for line in lines:
                sink(line)
        return lines

    def open_file(self) -> str:
        return "Opening a %s document." % self.kind_label

    def write_content(self) -> str:
        return "Writing content to the %s document." % self.kind_label

    def format_content(self) -> str:
        return "Formatting the %s document content." % self.kind_label

    def save_file(self) -> str:
        # shared default step: every kind saves the same way
        return "Saving the document."


class PdfPipeline(DocPipeline):
    kind_label = "PDF"


class WordPipeline(DocPipeline):
    kind_label = "Word"


DOC_KINDS = {"pdf": PdfPipeline, "word": WordPipeline}


def prepare_document(kind: str, sink=None) -> list[str]:
    """Run the pipeline for a kind; lines also go through sink when given."""
    try:
        pipeline = DOC_KINDS[kind]()
    except KeyError:
        raise ValueError("unknown document kind %r" % kind) from None
    return pipeline.prepare(sink)
