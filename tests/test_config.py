import json

import pytest

from airsgd.config import (
    ConfigError,
    apply_overrides,
    load_config,
    parse_config,
    resolved_json,
    template,
)


def test_templates_validate():
    for kind in ("minimal", "paper_scale"):
        config = parse_config(template(kind))
        assert config.T >= 1


def test_paper_scale_template_values():
    doc = template("paper_scale")
    assert doc["T"] == 800
    assert doc["M"] == 20
    assert doc["d"] == 7850
    assert doc["s"] == 3925
    assert doc["power"] == {"kind": "linear_ramp", "alpha0": 1.0, "slope": 0.001}


def test_unknown_key_rejected():
    doc = template("minimal")
    doc["antennas"] = 4
    with pytest.raises(ConfigError, match="antennas"):
        parse_config(doc)


def test_unknown_nested_key_rejected():
    doc = template("minimal")
    doc["optimizer"]["momentum"] = 0.9
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_missing_required_key_rejected():
    doc = template("minimal")
    del doc["K"]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_s_larger_than_d_rejected():
    doc = template("minimal")
    doc["s"] = doc["d"] + 1
    with pytest.raises(ConfigError, match="exceeds"):
        parse_config(doc)


def test_batch_size_bounded_by_per_device():
    doc = template("minimal")
    doc["batch_size"] = doc["partition"]["per_device"] + 1
    with pytest.raises(ConfigError, match="batch_size=81 .* per_device=80"):
        parse_config(doc)


@pytest.mark.parametrize("overrides, key", [
    (["master_seed=-1"], "master_seed"),
    (["optimizer.eps=0"], "eps"),
    (["dataset.margin=0"], "margin"),
    (["mode=error_free", "sigma_h_sq=-1"], "sigma_h_sq"),
    (['metrics_path=""'], "metrics_path"),
    (["dataset.kind=foo"], "dataset.kind"),
    (["partition.per_device=80.0"], "partition.per_device"),
    (["master_seed=1.0"], "master_seed"),
    (["K=true"], "K"),
    (["sigma_z_sq=NaN"], "sigma_z_sq"),
    (["sigma_z_sq=Infinity"], "sigma_z_sq"),
    ([f"dataset.margin={10**400}"], "dataset.margin"),
    (["power.kind=constant", "power.slope=0.5"], "power"),
    ([f"master_seed={2**32}"], "master_seed"),
    ([f"dataset.seed={2**32}"], "dataset: seed must lie"),
    ([f"K={2**63}"], "K"),
    ([f"K={2**64}"], "K"),
    ([f"dataset.classes={10**20}"], "dataset.classes"),
    ([f"dataset.train_per_class={10**20}"], "dataset.train_per_class"),
    (['metrics_path="a\\u0000b.csv"'], "metrics_path: .*NUL byte"),
    (['dataset={"kind": "idx", "train_images": "a\\u0000b", "train_labels": "l", '
      '"test_images": "t", "test_labels": "u"}'], "dataset.train_images: .*NUL byte"),
    (["mode=foo"], "mode must be 'ota' or 'error_free', got 'foo'"),
    (["sigma_z_sq=-1"], "sigma_z_sq must be nonnegative"),
    (["mode=ota", "sigma_h_sq=0"], "ota mode needs sigma_h_sq > 0"),
    (["batch_size=0"], "batch_size must be positive or null"),
    (["partition.per_device=0"], "partition: per_device must be >= 1"),
    (["dataset=5"], "dataset: expected an object"),
    (["power=5"], "power: expected an object"),
])
def test_invalid_value_names_its_key(overrides, key):
    doc = apply_overrides(template("minimal"), overrides)
    with pytest.raises(ConfigError, match=key):
        parse_config(doc)


def test_extra_key_inside_dataset_rejected():
    doc = template("minimal")
    doc["dataset"]["extra"] = 1
    with pytest.raises(ConfigError, match="dataset: unknown key 'extra'"):
        parse_config(doc)


def test_int_for_float_field_is_stored_as_float():
    doc = apply_overrides(template("minimal"), ["dataset.margin=3", "sigma_z_sq=20"])
    config = parse_config(doc)
    assert config == parse_config(template("minimal"))
    assert isinstance(config.dataset.margin, float)


def test_overrides_nested_and_typed():
    doc = template("minimal")
    out = apply_overrides(doc, ["K=5", "optimizer.learning_rate=0.5", "mode=error_free"])
    assert out["K"] == 5
    assert out["optimizer"]["learning_rate"] == 0.5
    assert out["mode"] == "error_free"
    # the original document is untouched
    assert doc["K"] == template("minimal")["K"]
    assert doc["optimizer"]["learning_rate"] == template("minimal")["optimizer"]["learning_rate"]


def test_override_unknown_key_rejected():
    doc = apply_overrides(template("minimal"), ["Q=3"])
    with pytest.raises(ConfigError, match="unknown key 'Q'"):
        parse_config(doc)
    with pytest.raises(ConfigError, match="does not match"):
        apply_overrides(template("minimal"), ["nope.eps=1"])
    with pytest.raises(ConfigError, match="does not match"):
        apply_overrides(template("minimal"), ["K.x=1"])
    with pytest.raises(ConfigError, match="KEY=VALUE"):
        apply_overrides(template("minimal"), ["K"])


def test_load_config_missing_file(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="nope.json"):
        load_config(missing)


def test_load_config_reads_and_validates_the_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(template("minimal")))
    assert load_config(path) == parse_config(template("minimal"))


def test_roundtrip_through_dict():
    for kind in ("minimal", "paper_scale"):
        config = parse_config(template(kind))
        assert parse_config(json.loads(resolved_json(config))) == config


def test_resolved_json_is_stable_and_sorted():
    config = parse_config(template("minimal"))
    a = resolved_json(config)
    b = resolved_json(config)
    assert a == b
    keys = list(json.loads(a).keys())
    assert keys == sorted(keys)
