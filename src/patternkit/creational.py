"""Object construction: the process-wide registry, and the catalogue's
builder, factory-method, abstract-factory and prototype fixtures.

`patternd` does not import this module; with `--log` it comes in through
`structural_kit`.  So no module here may import `patternkit.server`: under
`python -m patternkit.server` that import would run `server.py` a second
time, as a second module.  The server's config lives in `server.py`."""

from __future__ import annotations

import threading

from .wire import Record


class Registry:
    """Process-wide singleton holding named monotone counters only.

    Acquire it through registry_instance(); direct construction elsewhere
    breaks the one-instance guarantee.
    """

    _instance: Registry | None = None
    _lock = threading.Lock()
    _init_runs = 0  # constructor executions, for the race harness

    def __init__(self):
        type(self)._init_runs += 1
        self.counters: dict[str, int] = {}
        self._counter_lock = threading.Lock()

    def bump(self, name: str, amount: int = 1) -> int:
        if amount < 0:
            raise ValueError("counters are monotone")
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0) + amount
            return self.counters[name]

    def snapshot(self) -> dict[str, int]:
        with self._counter_lock:
            return dict(self.counters)


def registry_instance() -> Registry:
    """The one Registry, created lazily under a lock on first acquisition."""
    if Registry._instance is None:
        with Registry._lock:
            if Registry._instance is None:
                Registry._instance = Registry()
    return Registry._instance


def _reset_registry_for_tests():
    """Drop the singleton so a race harness can observe a fresh first call.

    Test-only; production code must never call this.
    """
    with Registry._lock:
        Registry._instance = None
        Registry._init_runs = 0


# Builder demonstration: a director driving a two-part product build.


class Product:
    def __init__(self):
        self.parts: list[str] = []

    def show(self) -> str:
        return "Product parts: " + ", ".join(self.parts)


class TwoPartBuilder:
    """Fluent concrete builder; parts accumulate across runs."""

    def __init__(self):
        self.product = Product()

    def build_part_a(self) -> TwoPartBuilder:
        self.product.parts.append("Part A")
        return self

    def build_part_b(self) -> TwoPartBuilder:
        self.product.parts.append("Part B")
        return self


class Director:
    def __init__(self, builder: TwoPartBuilder):
        self.builder = builder

    def construct(self):
        self.builder.build_part_a().build_part_b()


def demo_build_product(director: Director) -> list[str]:
    """Run the director once and return the product's part list."""
    director.construct()
    return director.builder.product.parts


# Factory method: the dialog fixture.


class Button:
    def render(self) -> str:
        raise NotImplementedError


class WindowsButton(Button):
    def render(self) -> str:
        return "Rendering a Windows button."


class MacButton(Button):
    def render(self) -> str:
        return "Rendering a Mac button."


class Dialog:
    """Creator: subclasses pick the concrete button."""

    def create_button(self) -> Button:
        raise NotImplementedError

    def render_dialog(self) -> str:
        return self.create_button().render()


class WindowsDialog(Dialog):
    def create_button(self) -> Button:
        return WindowsButton()


class MacDialog(Dialog):
    def create_button(self) -> Button:
        return MacButton()


# Abstract factory: widget families.


class GuiButton:
    def click(self) -> str:
        raise NotImplementedError


class GuiCheckbox:
    def check(self) -> str:
        raise NotImplementedError


class WindowsGuiButton(GuiButton):
    def click(self) -> str:
        return "Windows Button clicked!"


class MacGuiButton(GuiButton):
    def click(self) -> str:
        return "Mac Button clicked!"


class WindowsGuiCheckbox(GuiCheckbox):
    def check(self) -> str:
        return "Windows Checkbox checked!"


class MacGuiCheckbox(GuiCheckbox):
    def check(self) -> str:
        return "Mac Checkbox checked!"


class GuiFactory:
    def create_button(self) -> GuiButton:
        raise NotImplementedError

    def create_checkbox(self) -> GuiCheckbox:
        raise NotImplementedError


class WindowsGuiFactory(GuiFactory):
    def create_button(self) -> GuiButton:
        return WindowsGuiButton()

    def create_checkbox(self) -> GuiCheckbox:
        return WindowsGuiCheckbox()


class MacGuiFactory(GuiFactory):
    def create_button(self) -> GuiButton:
        return MacGuiButton()

    def create_checkbox(self) -> GuiCheckbox:
        return MacGuiCheckbox()


def create_widget_family(name: str) -> GuiFactory:
    """Widget-family fixture: one factory yields a matched button/checkbox."""
    if name == "windows":
        return WindowsGuiFactory()
    if name == "mac":
        return MacGuiFactory()
    raise ValueError("unknown widget family %r" % name)


# Prototypes: explicit field-wise deep clones.


class SessionTemplate(Record):
    __slots__ = ("greeting", "initial_doc", "watched_topics")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, greeting: str, initial_doc: str, watched_topics: list[str]):
        super().__init__(greeting, initial_doc, watched_topics)


def deep_clone(template: SessionTemplate) -> SessionTemplate:
    # field-wise copy on purpose: the independence guarantee stays auditable
    return SessionTemplate(
        greeting=template.greeting,
        initial_doc=template.initial_doc,
        watched_topics=list(template.watched_topics),
    )


class VehiclePrototype:
    """Name/color record with an explicit clone, e.g. "Car (Red)"."""

    def __init__(self, name: str, color: str):
        self.name = name
        self.color = color

    def clone(self) -> VehiclePrototype:
        return VehiclePrototype(self.name, self.color)

    def __str__(self) -> str:
        return "%s (%s)" % (self.name, self.color)
