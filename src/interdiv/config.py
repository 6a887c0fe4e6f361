"""Key-value config files for dataset schemas and experiments.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored. List-valued keys are comma-separated; booleans are
``true``/``false``, ``yes``/``no`` or ``1``/``0`` in any case. Each kind of
file has one key table: ``SCHEMA_KEYS``, and ``EXPERIMENT_KEYS`` (the
schema keys plus the run plan). A file passes on only the keys it holds, so
each default lives on its dataclass alone, which also checks ranges. An
unknown, repeated or missing key, or a value its converter rejects, is a
``ConfigError`` naming the file, the line and the key.
"""
from __future__ import annotations

from .dataset import DatasetSchema
from .errors import ConfigError, decode_errors_as

BOOLEANS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def split_list(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def parse_bool(text: str) -> bool:
    try:
        return BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(BOOLEANS)}, got {text!r}") from None


# key -> (converter, field, ...); a field is ``name`` on the file's own
# dataclass or ``section.name`` on the one nested under ``section``
SCHEMA_KEYS = {
    "target": (str, "schema.target_column"),
    "protected": (split_list, "schema.protected_columns"),
    "privileged": (split_list, "schema.privileged_values"),
    "drop": (split_list, "schema.drop_columns"),
}
SCHEMA_REQUIRED = ("target", "protected", "privileged")
EXPERIMENT_KEYS = {
    **SCHEMA_KEYS,
    "data": (str, "data"),
    "models": (split_list, "models"),
    "out": (str, "out_dir"),
    "runs": (int, "n_runs"),
    "train_ratio": (float, "train_ratio"),
    "seed": (int, "base_seed", "boost.seed"),
    "metrics": (split_list, "metric_names"),
    "rounds": (int, "boost.n_rounds"),
    "eta": (float, "boost.learning_rate"),
    "depth": (int, "boost.max_depth"),
    "min_child_hessian": (float, "boost.min_child_hessian"),
    "lambda": (float, "boost.l2_lambda"),
    "hess_floor": (float, "boost.hess_floor"),
    "huber_delta": (float, "huber_delta"),
    "fast": (parse_bool, "fast"),
    "stratify_groups": (parse_bool, "stratify_groups"),
    "relevance_file": (str, "relevance_file"),
}
EXPERIMENT_REQUIRED = (*SCHEMA_REQUIRED, "data", "models")


def read(path, keys: dict, required: tuple) -> dict:
    """The fields a config file sets, converted with the key table ``keys``.

    Returns ``{section: {name: value}}`` for the keys the file holds; the
    fields of the file's own dataclass are under section ``""``.
    """
    found = {}
    line_of = {}
    with open(path, encoding="utf-8-sig") as fh, decode_errors_as(ConfigError, path):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise ConfigError(
                    f"{where}: unknown key {key!r}; expected one of {', '.join(keys)}"
                )
            if key in line_of:
                raise ConfigError(f"{where}: key {key!r} repeats line {line_of[key]}")
            line_of[key] = lineno
            convert, *targets = keys[key]
            try:
                value = convert(text)
            except ValueError as exc:
                raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None
            for target in targets:
                section, _, name = target.rpartition(".")
                found.setdefault(section, {})[name] = value
    for key in required:
        if key not in line_of:
            raise ConfigError(f"{path}: missing the {key!r} key")
    return found


def load_schema(path) -> DatasetSchema:
    return DatasetSchema(**read(path, SCHEMA_KEYS, SCHEMA_REQUIRED)["schema"])


def write_kv_file(path, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in mapping.items():
            if isinstance(value, (list, tuple)):
                value = ", ".join(str(v) for v in value)
            fh.write(f"{key} = {value}\n")
