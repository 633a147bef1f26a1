"""Flat ``key = value`` config files for training runs.

The on-disk format is deliberately dumb so that manifests stay diffable:
one assignment per line, ``#`` starts a comment, and a single optional
``[stage2]`` section introduces the nested fine-tuning config of a
two-stage schedule.  Unknown keys are hard errors (with line numbers) --
a typo in a hyperparameter name must never silently fall back to a
default.

``parse_config_text`` and ``config_to_text`` are inverses on resolved
configs: serializing a TrainConfig and parsing the result yields an
equal TrainConfig.
"""

from .errors import ConfigurationError
from .interference import InterferenceConfig, NoiseConfig
from .losses import TripletConfig
from .trainer import TrainConfig


class ConfigFileError(ConfigurationError):
    """Raised for malformed config text; message lists line numbers."""


def _parse_bool(text):
    low = text.lower()
    if low in ("true", "1"):
        return True
    if low in ("false", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_dims(text):
    if not text:
        return ()
    return tuple(int(part.strip(), 10) for part in text.split(","))


def _parse_sigma(text):
    if text.lower() == "matched":
        return None
    return float(text)


# key -> (converter, destination).  Destination "train" is a direct
# TrainConfig field; the others collect into the nested config objects.
_KEYS = {
    "loss_mode": (str, ("train", "loss_mode")),
    "epochs": (int, ("train", "epochs")),
    "iterations": (int, ("train", "iterations")),
    "seed": (int, ("train", "seed")),
    "hidden_dims": (_parse_dims, ("train", "hidden_dims")),
    "embed_dim": (int, ("train", "embed_dim")),
    "activation": (str, ("train", "activation")),
    "learning_rate": (float, ("train", "learning_rate")),
    "decay_start_epoch": (int, ("train", "decay_start_epoch")),
    "decay_factor": (float, ("train", "decay_factor")),
    "p_classes": (int, ("train", "p_classes")),
    "k_samples": (int, ("train", "k_samples")),
    "gamma": (float, ("train", "tac_momentum")),
    "tac_normalize": (_parse_bool, ("train", "tac_normalize")),
    "interference": (_parse_bool, ("interference", "enabled")),
    "lambda": (float, ("interference", "strength")),
    "fraction": (float, ("interference", "fraction")),
    "noise": (_parse_bool, ("noise", "enabled")),
    "sigma": (_parse_sigma, ("noise", "sigma")),
    "margin": (float, ("triplet", "margin")),
    "reduction": (str, ("triplet", "reduction")),
    "squared": (_parse_bool, ("triplet", "squared")),
    "temperature": (float, ("train", "temperature")),
    "label_smoothing": (float, ("train", "label_smoothing")),
    "mining": (str, ("train", "mining")),
    "eval_n_way": (int, ("train", "eval_n_way")),
    "eval_k_shot": (int, ("train", "eval_k_shot")),
    "eval_q_queries": (int, ("train", "eval_q_queries")),
    "eval_episodes": (int, ("train", "eval_episodes")),
    "holdout_fraction": (float, ("train", "holdout_fraction")),
}


def _split_sections(text):
    """Return {section: {key: (line_no, raw_value)}} plus a list of errors."""
    sections = {"main": {}}
    current = "main"
    errors = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name != "stage2":
                errors.append(f"line {line_no}: unknown section [{name}]")
                continue
            if name in sections:
                errors.append(f"line {line_no}: duplicate section [{name}]")
                continue
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            errors.append(f"line {line_no}: unknown key {key!r}")
            continue
        if key in sections[current]:
            first = sections[current][key][0]
            errors.append(
                f"line {line_no}: duplicate key {key!r} (first set on line {first})"
            )
            continue
        sections[current][key] = (line_no, value)
    return sections, errors


def _convert(entries, errors):
    values = {}
    for key, (line_no, raw) in entries.items():
        converter, _ = _KEYS[key]
        try:
            values[key] = converter(raw)
        except ValueError as exc:
            errors.append(f"line {line_no}: bad value for {key!r}: {exc}")
    return values


def _assemble(values, stage2=None):
    train_kw = {}
    nested = {"interference": {}, "noise": {}, "triplet": {}}
    for key, value in values.items():
        _, (dest, field) = _KEYS[key]
        if dest == "train":
            train_kw[field] = value
        else:
            nested[dest][field] = value
    if nested["interference"]:
        train_kw["interference"] = InterferenceConfig(**nested["interference"])
    if nested["noise"]:
        train_kw["noise"] = NoiseConfig(**nested["noise"])
    if nested["triplet"]:
        train_kw["triplet"] = TripletConfig(**nested["triplet"])
    if stage2 is not None:
        train_kw["stage2"] = stage2
    return TrainConfig(**train_kw)


def parse_config_text(text):
    """Parse config text into a fully resolved TrainConfig.

    Raises ConfigFileError listing every offending line when the text is
    malformed; semantic range violations surface as the underlying
    configuration errors.
    """
    sections, errors = _split_sections(text)
    converted = {name: _convert(entries, errors) for name, entries in sections.items()}
    if errors:
        raise ConfigFileError("; ".join(errors))
    stage2 = None
    if "stage2" in converted:
        stage2 = _assemble(converted["stage2"])
    return _assemble(converted["main"], stage2=stage2)


def parse_config_file(path):
    """`parse_config_text` of the UTF-8 text of file path; a file that is
    not UTF-8 raises ConfigFileError naming the first bad byte's offset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # read() decodes the whole file at once: the offset is the file's
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigFileError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    return parse_config_text(text)


def _format_value(key, value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if key == "hidden_dims":
        return ",".join(str(d) for d in value)
    if key == "sigma":
        return "matched" if value is None else repr(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_section(cfg):
    lines = []
    for key, (_, (dest, field)) in _KEYS.items():
        if dest == "noise" and cfg.noise is None:
            continue
        value = getattr(cfg if dest == "train" else getattr(cfg, dest), field)
        lines.append(f"{key} = {_format_value(key, value)}")
    return lines


def config_to_text(cfg):
    """Serialize a resolved TrainConfig to config-file text.

    Every key is written explicitly (defaults materialized) so that the
    text is a complete record of the run; ``parse_config_text`` on the
    result reconstructs an equal config.
    """
    lines = _emit_section(cfg)
    if cfg.stage2 is not None:
        lines.append("")
        lines.append("[stage2]")
        lines.extend(_emit_section(cfg.stage2))
    return "\n".join(lines) + "\n"
