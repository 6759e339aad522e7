"""Counter-registry singleton, the builder, factory and prototype fixtures,
and the server config, which `server.py` defines."""

import threading

import pytest

from patternkit.creational import (
    Director,
    MacDialog,
    Registry,
    SessionTemplate,
    TwoPartBuilder,
    VehiclePrototype,
    WindowsDialog,
    _reset_registry_for_tests,
    create_widget_family,
    deep_clone,
    demo_build_product,
    registry_instance,
)
from patternkit.server import ServerConfig

pytestmark = pytest.mark.usefixtures("fresh_registry")


class TestServerConfig:
    def test_defaults(self):
        cfg = ServerConfig()
        assert cfg.port == 7465
        assert cfg.family == "text"
        assert cfg.max_conns == 128
        assert cfg.log_path is None

    def test_is_immutable(self):
        cfg = ServerConfig()
        with pytest.raises(Exception):
            cfg.port = 80

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"port": -1},
            {"port": 65536},
            {"family": "xml"},
            {"max_conns": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)

    def test_port_zero_means_ephemeral(self):
        assert ServerConfig(port=0).port == 0


class TestRegistrySingleton:
    def test_same_instance(self):
        assert registry_instance() is registry_instance()

    def test_counters(self):
        reg = registry_instance()
        reg.bump("a")
        reg.bump("a", 2)
        reg.bump("b")
        assert reg.snapshot() == {"a": 3, "b": 1}

    def test_snapshot_is_a_copy(self):
        reg = registry_instance()
        reg.bump("a")
        snap = reg.snapshot()
        snap["a"] = 99
        assert reg.snapshot() == {"a": 1}

    def test_negative_bump_rejected(self):
        with pytest.raises(ValueError):
            registry_instance().bump("a", -1)

    def test_constructor_runs_once_across_64_threads(self):
        _reset_registry_for_tests()
        handles = [None] * 64
        barrier = threading.Barrier(64)

        def grab(i):
            barrier.wait()
            handles[i] = registry_instance()

        threads = [threading.Thread(target=grab, args=(i,)) for i in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(h is handles[0] for h in handles)
        assert Registry._init_runs == 1

    def test_concurrent_bumps_do_not_lose_updates(self):
        reg = registry_instance()

        def hammer():
            for _ in range(1000):
                reg.bump("hits")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.snapshot()["hits"] == 8000


class TestBuilderFixture:
    def test_director_builds_both_parts(self):
        assert demo_build_product(Director(TwoPartBuilder())) == ["Part A", "Part B"]

    def test_parts_accumulate_without_reset(self):
        builder = TwoPartBuilder()
        director = Director(builder)
        director.construct()
        director.construct()
        assert builder.product.show() == (
            "Product parts: Part A, Part B, Part A, Part B"
        )

    def test_fluent_builder_returns_self(self):
        builder = TwoPartBuilder()
        assert builder.build_part_a() is builder
        assert builder.build_part_b() is builder


class TestFactoryMethod:
    def test_dialogs_render_their_own_button(self):
        assert WindowsDialog().render_dialog() == "Rendering a Windows button."
        assert MacDialog().render_dialog() == "Rendering a Mac button."


class TestAbstractFactory:
    def test_widget_families_are_consistent(self):
        win = create_widget_family("windows")
        assert win.create_button().click() == "Windows Button clicked!"
        assert win.create_checkbox().check() == "Windows Checkbox checked!"
        mac = create_widget_family("mac")
        assert mac.create_button().click() == "Mac Button clicked!"
        assert mac.create_checkbox().check() == "Mac Checkbox checked!"

    def test_unknown_widget_family(self):
        with pytest.raises(ValueError):
            create_widget_family("linux")


class TestPrototype:
    def test_vehicle_clone_is_independent(self):
        original = VehiclePrototype("Car", "Red")
        clone = original.clone()
        clone.color = "Blue"
        assert str(original) == "Car (Red)"
        assert str(clone) == "Car (Blue)"

    def test_session_template_deep_clone(self):
        base = SessionTemplate(
            greeting="hi", initial_doc="seed", watched_topics=["temp"]
        )
        copy = deep_clone(base)
        copy.watched_topics.append("chat")
        assert base.watched_topics == ["temp"]
        assert copy.watched_topics == ["temp", "chat"]
        assert copy.greeting == "hi"
        assert copy.initial_doc == "seed"

    def test_clone_is_a_distinct_object(self):
        base = SessionTemplate(greeting="g", initial_doc="", watched_topics=[])
        assert deep_clone(base) is not base
