"""Command-line pipeline driver.

One executable with a subcommand per pipeline stage::

    factkit canon        raw annotations -> canonical facts + exclusion log
    factkit sample       K-Means diversity sampling of a fact file
    factkit split        seeded stratified train/val/test split
    factkit embed-fetch  pull embeddings from an HTTP provider into a .emb file
    factkit train        train one checkpoint per seed, report aggregate F1
    factkit predict      label a corpus with one checkpoint
    factkit eval         score one checkpoint against gold labels
    factkit baseline     TF-IDF + logistic regression over the same splits
    factkit agree        inter-annotator agreement tables
    factkit analyze      ensemble label distributions + leakage audit

Settings come from an optional JSON config file (``--config``), overridden
per command by flags. Every command writes ``<output>.manifest.json`` with
the package version, effective settings, a config digest, and SHA-256
digests of its inputs; outputs themselves contain no timestamps, so a rerun
with identical inputs reproduces them byte for byte.

Errors print one line, ``error: <Category>: <message>``, and exit with a
category-specific code:

    2 usage            3 config           4 data/parse/input files
    5 embedding file   6 endpoint         7 sampling
    8 training         9 metrics/agreement
    10 vocabulary      11 analysis        1 unexpected

Credentials for the embedding endpoint are taken from the environment
variable ``FACTKIT_EMBED_TOKEN`` (sent as a bearer token); everything else
is configured through the config file or flags.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, errors
from . import agreement as agreement_mod
from . import analyze as analyze_mod
from . import baseline as baseline_mod
from . import metrics as metrics_mod
from . import model as model_mod
from .dataio import (
    SplitSpec,
    read_facts,
    read_jsonl,
    read_split,
    stratified_split,
    write_facts,
    write_split,
)
from .embeddings import (
    EmbeddingMatrix,
    fetch_embeddings,
    l2_normalize,
    load_embeddings,
    save_embeddings,
)
from .errors import ConfigError, FactkitError
from .sampling import cluster_sample, kmeans_fit
from .taxonomy import (
    DIMENSIONS,
    CanonResult,
    FactRecord,
    RawAnnotation,
    canonicalize,
    labelsets_from_codes,
)

# Every setting: its default, the JSON type of its value and the values it may
# take. Types: int is a JSON integer (not true, not 2.0), float any JSON
# number, Fraction "p/q" or a number (0.7 is 7/10). A list default makes the
# value a non-empty list of distinct items; a null default allows null.
# Ranges are intervals, open at infinity, so NaN and Infinity fail each one,
# or tuples of choices. Flags whose argparse dest is a name here override it.
SETTINGS = {
    "seeds": ([42, 123, 456, 789, 1024], int, "[0, inf)"),
    "split.train": ("7/10", Fraction, "[0, 1]"),
    "split.val": ("1/10", Fraction, "[0, 1]"),
    "split.test": ("1/5", Fraction, "[0, 1]"),
    "train.learning_rate": (1e-3, float, "[0, inf)"),
    "train.batch_size": (64, int, "[1, inf)"),
    "train.max_epochs": (10, int, "[1, inf)"),
    "train.patience": (3, int, "[0, inf)"),
    "train.hidden": (None, int, "[1, inf)"),  # null: the embedding dimension
    "train.dropout": (0.1, float, "[0, 1)"),
    "train.weight_decay": (0.0, float, "[0, inf)"),
    "train.label_weighting": ("none", str, ("none", "inverse-frequency")),
    "sampling.k": (1000, int, "[1, inf)"),
    "sampling.cap": (3, int, "[1, inf)"),
    "embedding.batch_size": (32, int, "[1, inf)"),
    "embedding.timeout": (30.0, float, "(0, inf)"),
    "embedding.retries": (2, int, "[0, inf)"),
    "baseline.l2": (1e-4, float, "[0, inf)"),
}
_TYPE_NAMES = {int: "integer", float: "number", str: "string"}


def _checked(raw, default, kind, allowed):
    """``raw`` as its row of SETTINGS asks, or ValueError."""
    if raw is None and default is None:
        return None
    if isinstance(default, list):
        if type(raw) is not list or not raw or len(set(map(repr, raw))) != len(raw):
            raise ValueError("not a non-empty list of distinct items")
        return [_checked(item, default[0], kind, allowed) for item in raw]
    if kind is Fraction:
        value = Fraction(str(raw))  # ValueError or ZeroDivisionError unless "p/q" or a number
    elif type(raw) is kind or kind is float and type(raw) is int:
        value = kind(raw)
    else:
        raise ValueError(f"not a JSON {_TYPE_NAMES[kind]}")
    if isinstance(allowed, tuple):
        inside = value in allowed
    else:
        low, high = (float(end) for end in allowed[1:-1].split(","))
        inside = (low <= value if allowed[0] == "[" else low < value) and (
            value <= high if allowed[-1] == "]" else value < high
        )
    if not inside:
        raise ValueError(f"not in {allowed}")
    return str(value) if kind is Fraction else value


def load_config(path: Optional[str], flags: Optional[dict] = None) -> dict:
    """Each setting of SETTINGS from ``flags``, else the config file, else its default.

    ``flags`` maps setting names to command-line values (``None``: not given),
    so ``vars(args)`` can be passed as is. Each value is checked against its
    row and stored typed (numbers as floats, fractions as ``"p/q"``), and the
    split must sum to 1, or ConfigError. Keys that SETTINGS lacks are ignored.
    """
    overlay = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                overlay = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(overlay, dict):
            raise ConfigError("config root must be a JSON object")
    config: dict = {}
    for name, (default, kind, allowed) in SETTINGS.items():
        section, _, key = name.rpartition(".")
        given = overlay.get(section, {}) if section else overlay
        if not isinstance(given, dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
        raw = given.get(key, default) if (flags or {}).get(name) is None else flags[name]
        try:
            value = _checked(raw, default, kind, allowed)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{name} = {raw!r}: {exc}") from exc
        (config.setdefault(section, {}) if section else config)[key] = value
    if sum(map(Fraction, config["split"].values())) != 1:
        raise ConfigError(f"split fractions do not sum to 1: {config['split']}")
    return config


DEFAULT_CONFIG = load_config(None)

EXIT_CODES: list[tuple[tuple[type, ...], int]] = [
    ((errors.ConfigError,), 3),
    (
        (
            errors.ParseError,
            errors.DuplicateId,
            errors.EmptyInput,
            errors.UnknownEnumValue,
        ),
        4,
    ),
    (
        (errors.BadMagic, errors.TruncatedFile, errors.DimensionMismatch, errors.ZeroVector),
        5,
    ),
    ((errors.TransportError, errors.ProtocolError, errors.DimensionDrift), 6),
    ((errors.KTooLarge, errors.AlignmentError), 7),
    ((errors.EmptySplit, errors.NonFiniteLoss, errors.LabelOutOfRange), 8),
    (
        (
            errors.LengthMismatch,
            errors.SchemaMismatch,
            errors.NoComparableUnits,
            errors.MissingRatings,
            errors.OutOfRange,
        ),
        9,
    ),
    ((errors.EmptyVocabulary,), 10),
    ((errors.EmptyTables,), 11),
]


def _split_spec(config: dict, seed: int) -> SplitSpec:
    split = config["split"]
    return SplitSpec(split["train"], split["val"], split["test"], seed=seed)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    out_path: str,
    command: str,
    settings: dict,
    inputs: Sequence[str],
    seeds: Sequence[int],
    outputs: Sequence[str],
) -> None:
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "settings": settings,
        "config_digest": hashlib.sha256(
            json.dumps(settings, sort_keys=True).encode()
        ).hexdigest(),
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": list(outputs),
        "seeds": list(seeds),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _trainable(facts: Sequence[FactRecord]) -> list[FactRecord]:
    usable = [f for f in facts if f.labels is not None and not f.excluded]
    if not usable:
        raise errors.EmptyInput("no labeled, non-excluded facts")
    return usable


def _embeddings_for(facts: Sequence[FactRecord], matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Rows of ``matrix`` reordered to align with ``facts``."""
    return EmbeddingMatrix(
        rows=matrix.take([f.id for f in facts]).astype(matrix.rows.dtype),
        row_ids=tuple(f.id for f in facts),
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_canon(args, config) -> int:
    raw_records = list(read_jsonl(args.raw))
    for line_no, obj in raw_records:
        if not isinstance(obj, dict) or "annotation" not in obj:
            raise errors.ParseError(line_no, "missing 'annotation' object")

    facts: list[FactRecord] = []
    exclusions = []
    for line_no, obj in raw_records:
        try:
            annotation = RawAnnotation(**obj["annotation"])
            result: CanonResult = canonicalize(annotation)
            fact = FactRecord(
                id=obj["id"],
                text=obj["text"],
                context=obj.get("context"),
                source=obj.get("source", "Other"),
                labels=result.labels,
                excluded=result.excluded,
                exclusion_reason=result.exclusion_reason,
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise errors.ParseError(line_no, str(exc)) from exc
        facts.append(fact)
        if result.excluded:
            exclusions.append({"id": fact.id, "reason": result.exclusion_reason})

    write_facts(args.out, facts)
    exclusions_path = args.exclusions or f"{args.out}.exclusions.jsonl"
    with open(exclusions_path, "w", encoding="utf-8") as handle:
        for entry in exclusions:
            handle.write(json.dumps(entry) + "\n")
    write_manifest(
        args.out, "canon", {}, [args.raw], [], [args.out, exclusions_path]
    )
    print(f"canon: {len(facts)} facts written, {len(exclusions)} excluded")
    return 0


def cmd_sample(args, config) -> int:
    k, cap, seed = config["sampling"]["k"], config["sampling"]["cap"], config["seeds"][0]
    facts = read_facts(args.facts)
    matrix = _embeddings_for(facts, load_embeddings(args.embeddings))
    normalized = l2_normalize(matrix)
    kmeans = kmeans_fit(normalized, k=k, seed=seed)
    sampled = cluster_sample(facts, kmeans, cap=cap, seed=seed)
    write_facts(args.out, sampled)
    settings = {"k": k, "cap": cap, "seed": seed}
    write_manifest(args.out, "sample", settings, [args.facts, args.embeddings], [seed], [args.out])
    print(f"sample: {len(sampled)} of {len(facts)} facts kept across {k} clusters")
    return 0


def cmd_split(args, config) -> int:
    facts = _trainable(read_facts(args.facts))
    seed = config["seeds"][0]
    spec = _split_spec(config, seed)
    assignment = stratified_split(facts, spec)
    write_split(args.out, assignment, spec)
    settings = {
        "seed": seed,
        "train": str(spec.train_frac),
        "val": str(spec.val_frac),
        "test": str(spec.test_frac),
    }
    write_manifest(args.out, "split", settings, [args.facts], [seed], [args.out])
    print(
        f"split: train={len(assignment.train)} val={len(assignment.val)} "
        f"test={len(assignment.test)}"
    )
    return 0


def cmd_embed_fetch(args, config) -> int:
    facts = read_facts(args.facts)
    embedding = config["embedding"]
    headers = None
    token = os.environ.get("FACTKIT_EMBED_TOKEN")
    if token:
        headers = {"Authorization": f"Bearer {token}"}
    matrix = fetch_embeddings(
        args.endpoint,
        [f.text for f in facts],
        batch_size=embedding["batch_size"],
        ids=[f.id for f in facts],
        timeout=embedding["timeout"],
        retries=embedding["retries"],
        headers=headers,
    )
    save_embeddings(args.out, matrix)
    settings = {"endpoint": args.endpoint, "batch_size": embedding["batch_size"]}
    write_manifest(args.out, "embed-fetch", settings, [args.facts], [], [args.out])
    print(f"embed-fetch: {len(matrix)} embeddings of dim {matrix.dim}")
    return 0


def _aggregate_and_render(reports) -> str:
    try:
        agg = metrics_mod.aggregate_seeds(reports)
        dropped: list = []
    except errors.SchemaMismatch:
        trimmed, dropped = metrics_mod.harmonize_reports(reports)
        agg = metrics_mod.aggregate_seeds(trimmed)
    return metrics_mod.render_aggregate(agg, dropped)


def _fit_per_seed(args, config, facts, fit, report_name: str, inputs: list[str]) -> int:
    """Split, write ``split-seed<N>.txt``, fit and score per seed, then report.

    ``fit(seed, assignment, targets, train_rows, test_rows)`` is the command's
    own step: ``targets`` are the facts' (N, 7) label codes, the row lists
    index them, and it returns the test report, a note for the per-seed line
    and the paths it wrote.
    """
    command = args.command
    targets = model_mod.targets_from_facts(facts, model_mod.canonical_label_space())
    row_of = {fact.id: row for row, fact in enumerate(facts)}
    seeds = config["seeds"]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    outputs = []
    for seed in seeds:
        spec = _split_spec(config, seed)
        assignment = stratified_split(facts, spec)
        split_path = out_dir / f"split-seed{seed}.txt"
        write_split(split_path, assignment, spec)
        train_rows = [row_of[i] for i in assignment.train]
        test_rows = [row_of[i] for i in assignment.test]
        report, note, paths = fit(seed, assignment, targets, train_rows, test_rows)
        reports.append(report)
        outputs += [str(split_path), *map(str, paths)]
        print(f"{command}: seed {seed} {note}test overall {report.overall_macro_f1:.4f}")

    report_path = out_dir / report_name
    report_path.write_text(_aggregate_and_render(reports), encoding="utf-8")
    outputs.append(str(report_path))
    write_manifest(
        str(report_path),
        command,
        {command: config[command], "split": config["split"]},
        inputs,
        seeds,
        outputs,
    )
    print(f"{command}: aggregate report at {report_path}")
    return 0


def cmd_train(args, config) -> int:
    facts = _trainable(read_facts(args.facts))
    matrix = _embeddings_for(facts, load_embeddings(args.embeddings))
    settings = config["train"]
    out_dir = Path(args.out_dir)

    def fit(seed, assignment, targets, train_rows, test_rows):
        label_weights = None
        if settings["label_weighting"] == "inverse-frequency":
            label_weights = model_mod.inverse_frequency_label_weights(
                targets[train_rows], model_mod.canonical_label_space()
            )
        net = model_mod.new_model(
            dim=matrix.dim,
            label_space=model_mod.canonical_label_space(),
            hidden=settings["hidden"],
            dropout_rate=settings["dropout"],
            label_weights=label_weights,
            seed=seed,
        )
        fit_keys = ("learning_rate", "batch_size", "max_epochs", "patience", "weight_decay")
        train_config = model_mod.TrainConfig(seed=seed, **{key: settings[key] for key in fit_keys})
        result = model_mod.train(net, matrix, targets, assignment, train_config)
        ckpt_path = out_dir / f"model-seed{seed}.ckpt"
        model_mod.save_model(ckpt_path, result.model)
        test_matrix = EmbeddingMatrix(rows=matrix.take(assignment.test), row_ids=assignment.test)
        predictions, _ = model_mod.predict(result.model, test_matrix)
        report = metrics_mod.evaluate_labelsets(targets[test_rows], predictions)
        note = f"best epoch {result.best_epoch} val F1 {result.best_val_f1:.4f} "
        return report, note, [ckpt_path]

    return _fit_per_seed(args, config, facts, fit, "metrics.txt", [args.facts, args.embeddings])


def cmd_predict(args, config) -> int:
    net = model_mod.load_model(args.model)
    matrix = load_embeddings(args.embeddings)
    codes, confidences = model_mod.predict(net, matrix)
    rows = zip(matrix.row_ids, labelsets_from_codes(codes), confidences.tolist())
    with open(args.out, "w", encoding="utf-8") as handle:
        for row_id, labels, conf in rows:
            handle.write(
                json.dumps(
                    {
                        "id": row_id,
                        "labels": labels.as_dict(),
                        "confidence": {d.value: round(c, 6) for d, c in zip(DIMENSIONS, conf)},
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    write_manifest(args.out, "predict", {}, [args.model, args.embeddings], [], [args.out])
    print(f"predict: {len(codes)} facts labeled")
    return 0


def cmd_eval(args, config) -> int:
    facts = _trainable(read_facts(args.facts))
    net = model_mod.load_model(args.model)
    matrix = load_embeddings(args.embeddings)
    if args.split:
        assignment, _ = read_split(args.split)
        by_id = {f.id: f for f in facts}
        try:
            chosen = [by_id[i] for i in assignment.test]
        except KeyError as exc:
            raise errors.EmptySplit(f"split id {exc.args[0]!r} not in facts") from exc
    else:
        chosen = facts
    predictions, _ = model_mod.predict(net, _embeddings_for(chosen, matrix))
    gold = model_mod.targets_from_facts(chosen, model_mod.canonical_label_space())
    report = metrics_mod.evaluate_labelsets(gold, predictions)
    agg = metrics_mod.aggregate_seeds([report])
    text = metrics_mod.render_aggregate(agg)
    Path(args.out).write_text(text, encoding="utf-8")
    inputs = [args.facts, args.embeddings, args.model] + ([args.split] if args.split else [])
    write_manifest(args.out, "eval", {}, inputs, [], [args.out])
    print(f"eval: overall macro F1 {report.overall_macro_f1:.4f} over {len(chosen)} facts")
    return 0


def cmd_baseline(args, config) -> int:
    facts = _trainable(read_facts(args.facts))
    l2 = config["baseline"]["l2"]
    texts = [fact.text for fact in facts]

    def fit(seed, assignment, targets, train_rows, test_rows):
        vocab, models = baseline_mod.train_baseline(
            [texts[row] for row in train_rows], targets[train_rows], l2=l2
        )
        X_test = baseline_mod.tfidf_transform(vocab, [texts[row] for row in test_rows])
        return baseline_mod.baseline_eval(models, X_test, targets[test_rows]), "", []

    return _fit_per_seed(args, config, facts, fit, "baseline-metrics.txt", [args.facts])


def cmd_agree(args, config) -> int:
    if len(args.labels) < 2:
        raise ConfigError("agree needs at least two label files")
    rater_facts = [read_facts(path) for path in args.labels]
    by_id = [
        {f.id: f for f in facts if f.labels is not None} for facts in rater_facts
    ]
    shared_ids = [
        fact.id
        for fact in rater_facts[0]
        if all(fact.id in rater for rater in by_id)
    ]
    if not shared_ids:
        raise errors.NoComparableUnits("no fact id is labeled in every file")

    lines = [
        f"raters: {len(args.labels)}, aligned units: {len(shared_ids)}",
        "",
        f"{'dimension':<20}{'%agree':>8}{'cohen':>8}{'fleiss':>8}{'alpha':>8}  "
        f"{'interpretation':<16}{'N':>6}",
    ]
    reports = []
    for dim in DIMENSIONS:
        table = agreement_mod.RatingsTable(
            values=[
                [rater[i].labels.get(dim) for rater in by_id] for i in shared_ids
            ]
        )
        report = agreement_mod.compute_agreement(table)
        reports.append(report)
        lines.append(_agree_row(dim.value, report))
    average = agreement_mod.average_report(reports)
    lines.append(_agree_row("average", average))
    text = "\n".join(lines) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    write_manifest(args.out, "agree", {}, list(args.labels), [], [args.out])
    print(f"agree: report at {args.out}")
    return 0


def _agree_row(title: str, report) -> str:
    def fmt(value, width):
        return f"{value:>{width}.3f}" if value is not None else " " * (width - 1) + "-"

    n = str(report.n_units) if report.n_units else "-"
    return (
        f"{title:<20}{100.0 * report.percent:>7.1f}%{fmt(report.cohen, 8)}"
        f"{fmt(report.fleiss, 8)}{fmt(report.kripp_alpha, 8)}  "
        f"{report.interpretation:<16}{n:>6}"
    )


def cmd_analyze(args, config) -> int:
    nets = [model_mod.load_model(path) for path in args.models]
    corpus = read_facts(args.corpus)
    matrix = _embeddings_for(corpus, load_embeddings(args.embeddings))
    tables = analyze_mod.predict_corpus(nets, matrix)
    report = analyze_mod.aggregate_distribution(tables)
    audit = None
    if args.train_facts:
        train_facts = read_facts(args.train_facts)
        audit = analyze_mod.leakage_audit(train_facts, corpus, tables)
    text = analyze_mod.render_distribution(report, audit)
    Path(args.out).write_text(text, encoding="utf-8")
    inputs = list(args.models) + [args.corpus, args.embeddings]
    if args.train_facts:
        inputs.append(args.train_facts)
    write_manifest(args.out, "analyze", {}, inputs, [], [args.out])
    print(f"analyze: report at {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factkit", description="personal-fact classification pipeline"
    )
    parser.add_argument("--version", action="version", version=f"factkit {__version__}")
    parser.add_argument("--config", help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonicalize raw annotations")
    p.add_argument("--raw", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--exclusions")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("sample", help="cluster-based diversity sampling")
    p.add_argument("--facts", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    # a flag whose dest is a setting's name overrides that setting
    p.add_argument("--k", type=int, dest="sampling.k", metavar="K")
    p.add_argument("--cap", type=int, dest="sampling.cap", metavar="CAP")
    p.add_argument("--seed", type=int, nargs=1, dest="seeds", metavar="SEED")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("split", help="seeded stratified split")
    p.add_argument("--facts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, nargs=1, dest="seeds", metavar="SEED")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("embed-fetch", help="fetch embeddings over HTTP")
    p.add_argument("--facts", required=True)
    p.add_argument("--endpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--batch-size", type=int, dest="embedding.batch_size", metavar="BATCH_SIZE")
    p.set_defaults(func=cmd_embed_fetch)

    p = sub.add_parser("train", help="train checkpoints across seeds")
    p.add_argument("--facts", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seeds", nargs="+", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label a corpus with a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a checkpoint against gold labels")
    p.add_argument("--model", required=True)
    p.add_argument("--facts", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--split", help="split file; evaluates its test ids")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="TF-IDF + logistic regression")
    p.add_argument("--facts", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seeds", nargs="+", type=int)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("agree", help="inter-annotator agreement tables")
    p.add_argument("--labels", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_agree)

    p = sub.add_parser("analyze", help="corpus distribution + leakage audit")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--train-facts")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, vars(args))
        return args.func(args, config)
    except FactkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        for exc_types, code in EXIT_CODES:
            if isinstance(exc, exc_types):
                return code
        return 1
    except OSError as exc:  # an input or output file; config files raise ConfigError
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
