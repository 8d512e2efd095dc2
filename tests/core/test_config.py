"""PipelineConfig: validation at construction, wiring into both pipelines."""

import dataclasses

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import QoEPipeline
from repro.core.streaming import StreamingQoEPipeline


class TestValidation:
    @pytest.mark.parametrize("window_s", [0, -1, -0.5, float("nan"), float("inf")])
    def test_window_must_be_positive_finite(self, window_s):
        with pytest.raises(ValueError, match="window_s"):
            PipelineConfig(window_s=window_s)

    @pytest.mark.parametrize("lookback", [0, -1, -5])
    def test_lookback_must_be_positive(self, lookback):
        with pytest.raises(ValueError, match="lookback"):
            PipelineConfig(lookback=lookback)

    @pytest.mark.parametrize("reorder_depth", [-1, -10])
    def test_reorder_depth_must_be_non_negative(self, reorder_depth):
        with pytest.raises(ValueError, match="reorder_depth"):
            PipelineConfig(reorder_depth=reorder_depth)

    def test_reorder_depth_zero_is_allowed(self):
        assert PipelineConfig(reorder_depth=0).reorder_depth == 0

    def test_backfill_limit_negative_rejected(self):
        with pytest.raises(ValueError, match="backfill_limit"):
            PipelineConfig(backfill_limit=-1)

    @pytest.mark.parametrize("field,value", [
        ("max_frame_age_s", 0.0),
        ("max_frame_age_s", -1.0),
        ("idle_timeout_s", 0.0),
        ("idle_timeout_s", -2.0),
        ("delta_size", -1.0),
        ("start", float("inf")),
    ])
    def test_other_field_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})

    def test_idle_timeout_shorter_than_window_rejected(self):
        # Evicting faster than windows close would double-emit a window.
        with pytest.raises(ValueError, match="idle_timeout_s.*window_s"):
            PipelineConfig(window_s=1.0, idle_timeout_s=0.5)
        assert PipelineConfig(window_s=1.0, idle_timeout_s=1.0).idle_timeout_s == 1.0

    def test_none_disables_optional_bounds(self):
        config = PipelineConfig(
            lookback=None, reorder_depth=None, max_frame_age_s=None,
            backfill_limit=None, idle_timeout_s=None,
        )
        assert config.backfill_limit is None

    def test_frozen(self):
        config = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.window_s = 2.0

    def test_replace_revalidates(self):
        config = PipelineConfig()
        assert config.replace(window_s=0.5).window_s == 0.5
        with pytest.raises(ValueError):
            config.replace(window_s=0)

    def test_round_trips_through_dict(self):
        config = PipelineConfig(window_s=0.5, lookback=3, max_frame_age_s=2.0)
        assert PipelineConfig.from_dict(config.to_dict()) == config


class TestWiring:
    def test_pipeline_window_from_config(self):
        pipeline = QoEPipeline.for_vca("teams", config=PipelineConfig(window_s=2.0))
        assert pipeline.window_s == 2.0
        assert pipeline.config.window_s == 2.0

    def test_window_kwarg_overrides_config(self):
        pipeline = QoEPipeline.for_vca("teams", window_s=3, config=PipelineConfig(window_s=2.0))
        assert pipeline.window_s == 3.0

    def test_invalid_window_rejected_via_kwarg(self):
        with pytest.raises(ValueError):
            QoEPipeline.for_vca("teams", window_s=0)

    def test_assembly_params_default_to_profile(self):
        pipeline = QoEPipeline.for_vca("teams")
        assert pipeline.heuristic.assembler.lookback == pipeline.profile.heuristic_lookback
        assert pipeline.heuristic.assembler.delta_size == pipeline.profile.heuristic_size_threshold

    def test_assembly_params_overridable(self):
        pipeline = QoEPipeline.for_vca("teams", config=PipelineConfig(lookback=5, delta_size=4.0))
        assert pipeline.heuristic.assembler.lookback == 5
        assert pipeline.heuristic.assembler.delta_size == 4.0

    def test_engine_inherits_pipeline_config(self):
        config = PipelineConfig(reorder_depth=7, max_frame_age_s=3.0, backfill_limit=2)
        engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams", config=config))
        assert engine.reorder_depth == 7
        assert engine.max_frame_age_s == 3.0
        assert engine.backfill_limit == 2

    def test_engine_config_takes_precedence_over_pipeline_config(self):
        pipeline = QoEPipeline.for_vca("teams", config=PipelineConfig(reorder_depth=7))
        engine = StreamingQoEPipeline(
            pipeline, config=pipeline.config.replace(reorder_depth=2, demux_flows=False)
        )
        assert engine.reorder_depth == 2
        assert not engine.demux_flows
        # The pipeline's own config is untouched (frozen).
        assert pipeline.config.reorder_depth == 7

    @pytest.mark.parametrize(
        "kwarg",
        [
            {"demux_flows": False},
            {"start": 1.0},
            {"reorder_depth": 2},
            {"max_frame_age_s": 1.0},
            {"backfill_limit": None},
        ],
    )
    def test_engine_takes_settings_from_config_only(self, kwarg):
        """The per-field constructor kwargs are gone: ``config=`` is the one
        way to set the engine's behaviour."""
        with pytest.raises(TypeError):
            StreamingQoEPipeline(QoEPipeline.for_vca("teams"), **kwarg)

    def test_engine_resolves_default_reorder_depth_to_lookback(self):
        pipeline = QoEPipeline.for_vca("teams")
        engine = StreamingQoEPipeline(pipeline)
        assert engine.reorder_depth == pipeline.heuristic.assembler.lookback

    def test_engine_rejects_invalid_override(self):
        with pytest.raises(ValueError):
            pipeline = QoEPipeline.for_vca("teams")
            StreamingQoEPipeline(pipeline, config=pipeline.config.replace(reorder_depth=-1))

    def test_engine_config_override_reaches_the_assembler(self):
        """A per-engine lookback/delta override must actually take effect,
        not be silently shadowed by the pipeline's pre-built heuristic."""
        from repro.net.packet import IPv4Header, Packet, UDPHeader

        pipeline = QoEPipeline.for_vca("teams")  # profile lookback=2, delta=2.0
        engine = StreamingQoEPipeline(
            pipeline, config=pipeline.config.replace(lookback=9, delta_size=500.0)
        )
        # The default reorder depth follows the *effective* lookback.
        assert engine.reorder_depth == 9
        engine.push(Packet(
            timestamp=0.1,
            ip=IPv4Header(src="192.0.2.10", dst="10.0.0.1"),
            udp=UDPHeader(src_port=3478, dst_port=51000),
            payload_size=1000,
        ))
        stream = next(iter(engine._streams.values()))
        assert stream.assembler.lookback == 9
        assert stream.assembler.delta_size == 500.0

    def test_training_with_multi_second_window(self, teams_calls_small):
        """window_s=2 trained fine before the config refactor and must still."""
        pipeline = QoEPipeline.for_vca("teams", window_s=2).train(teams_calls_small)
        estimates = pipeline.estimate(teams_calls_small[0].trace)
        assert estimates and all(e.source == "ml" for e in estimates)
        assert estimates[1].window_start == 2.0

    def test_training_with_fractional_window_fails_clearly(self, teams_calls_small):
        pipeline = QoEPipeline.for_vca("teams", config=PipelineConfig(window_s=0.5))
        with pytest.raises(ValueError, match="integer window_s"):
            pipeline.train(teams_calls_small)
