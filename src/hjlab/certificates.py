"""Machine-checkable certificates.

Every search result that claims something positive is written as a
self-contained structured-text document: whatever is needed to re-check the
claim (tables, retraction images, color tables) is embedded, so verification
is a direct evaluation with no search and no external files.  Field order is
fixed and wall-clock time is never written, so identical runs produce
byte-identical certificates.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import CertificateError, HjlabError, VerificationError
from .instances import PullbackColoring, TableColoring, parse_coloring_spec, require_fit
from .semigroups import FiniteSemigroup, RetractionFamily, SubsetQuery
from .search import INSTANCE_FIELDS, INSTANCES, hj_instance, vdw_instance, verify_proper_coloring
from .words import WordSemigroup, format_word, parse_word, substitution_family

HEADER = "hjlab certificate v1"


# -- coloring blocks -----------------------------------------------------


def _render_coloring(coloring):
    if coloring.kind in ("mod", "apres"):
        return [f"coloring: {coloring.spec()}"]
    if coloring.kind != "table":
        raise CertificateError(f"coloring kind {coloring.kind!r} cannot be embedded")
    lines = ["coloring: table", f"table-colors: {coloring.r}"]
    lines += [f"table: {k} {v}" for k, v in coloring.entries.items()]
    if coloring.default is not None:
        lines.append(f"table-default: {coloring.default}")
    return lines


def _parse_coloring(fields):
    spec = _one(fields, "coloring")
    if spec != "table":
        # only the count specs: an embedded coloring never names a file
        if not spec.startswith(("mod:", "apres:")):
            raise CertificateError(f"bad coloring spec: {spec!r}")
        return parse_coloring_spec(spec)
    entries = {}
    for line in fields.pop("table", []):
        parts = line.split()
        if len(parts) != 2:
            raise CertificateError(f"bad table line: {line!r}")
        entries[parts[0]] = int(parts[1])
    r = int(_one(fields, "table-colors"))
    default = int(_one(fields, "table-default")) if "table-default" in fields else None
    return TableColoring(entries, r=r, default=default)


# -- certificate kinds ---------------------------------------------------


@dataclass
class _WitnessCertificate:
    """The fields both witness kinds write after their own head fields."""

    coloring: object  # ModSumColoring | ApResidueColoring | TableColoring; finite: TableColoring
    witness: object  # a word, or an element index
    images: list
    color: int
    checked: int


@dataclass
class WitnessWordsCertificate(_WitnessCertificate):
    kind = "witness-words"
    alphabet: int
    reduction: str  # none | vdw


@dataclass
class WitnessFiniteCertificate(_WitnessCertificate):
    kind = "witness-finite"
    table: list  # n rows of n ints
    t_members: list
    retractions: list  # one image row per family member


@dataclass
class ColoringCertificate:
    """A proper coloring of an hj or vdw instance (kind hj-coloring or
    vdw-coloring); ``params`` are named by ``INSTANCE_FIELDS[family]``."""

    family: str
    params: tuple
    r: int
    assignment: list
    nodes: int

    @property
    def kind(self):
        return f"{self.family}-coloring"


def _payload_lines(cert):
    """The lines of ``cert`` that its digest covers, header first."""
    if not isinstance(cert, (_WitnessCertificate, ColoringCertificate)):
        raise CertificateError(f"unknown certificate object: {cert!r}")
    lines = [HEADER, f"kind: {cert.kind}"]
    if isinstance(cert, ColoringCertificate):
        return lines + [
            *(f"{name}: {value}" for name, value in zip(INSTANCE_FIELDS[cert.family], cert.params)),
            f"colors: {cert.r}",
            "assignment: " + " ".join(str(c) for c in cert.assignment),
            f"nodes: {cert.nodes}",
        ]
    if isinstance(cert, WitnessWordsCertificate):
        # words have the one variable x
        lines += [f"alphabet: {cert.alphabet}", "variables: 1", f"reduction: {cert.reduction}"]
        show = format_word
    else:
        lines.append(f"order: {len(cert.table)}")
        lines += ["row: " + " ".join(str(x) for x in row) for row in cert.table]
        lines.append("subset: " + " ".join(str(x) for x in cert.t_members))
        lines += [
            "retraction: " + " ".join(str(x) for x in row) for row in cert.retractions
        ]
        show = str
    return lines + _render_coloring(cert.coloring) + [
        f"witness: {show(cert.witness)}",
        "images: " + " ".join(show(w) for w in cert.images),
        f"color: {cert.color}",
        f"checked: {cert.checked}",
    ]


def render_certificate(cert):
    lines = _payload_lines(cert)
    lines.append(f"check: {_payload_digest(lines)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _payload_digest(payload_lines):
    blob = ("\n".join(payload_lines) + "\n").encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _one(fields, key):
    """Consume the one value of ``key``."""
    vals = fields.pop(key, None)
    if not vals:
        raise CertificateError(f"missing field {key!r}")
    if len(vals) > 1:
        raise CertificateError(f"field {key!r} repeated")
    return vals[0]


def parse_certificate(text):
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or lines[0] != HEADER:
        raise CertificateError("missing certificate header")
    if lines[-1] != "end":
        raise CertificateError("certificate truncated (no end marker)")
    if len(lines) < 3 or not lines[-2].startswith("check: "):
        raise CertificateError("missing integrity line")
    if lines[-2][len("check: "):] != _payload_digest(lines[:-2]):
        raise CertificateError("integrity check failed (file was modified)")
    fields = {}
    for ln in lines[1:-2]:
        if ": " not in ln:
            raise CertificateError(f"malformed line: {ln!r}")
        key, value = ln.split(": ", 1)
        fields.setdefault(key, []).append(value)
    kind = _one(fields, "kind")
    family = kind.removesuffix("-coloring")
    # each kind consumes its own fields; whatever is left belongs to none
    try:
        if kind == "witness-words":
            if int(_one(fields, "variables")) != 1:
                raise CertificateError("a witness-words certificate has one variable")
            cls, read = WitnessWordsCertificate, parse_word
            head = dict(alphabet=int(_one(fields, "alphabet")), reduction=_one(fields, "reduction"))
        elif kind == "witness-finite":
            order = int(_one(fields, "order"))
            rows = [[int(x) for x in ln.split()] for ln in fields.pop("row", [])]
            if len(rows) != order:
                raise CertificateError("row count does not match order")
            cls, read = WitnessFiniteCertificate, int
            head = dict(
                table=rows,
                t_members=[int(x) for x in _one(fields, "subset").split()],
                retractions=[
                    [int(x) for x in ln.split()] for ln in fields.pop("retraction", [])
                ],
            )
        elif kind.endswith("-coloring") and family in INSTANCE_FIELDS:
            cert = ColoringCertificate(
                family=family,
                params=tuple(int(_one(fields, name)) for name in INSTANCE_FIELDS[family]),
                r=int(_one(fields, "colors")),
                assignment=[int(x) for x in _one(fields, "assignment").split()],
                nodes=int(_one(fields, "nodes")),
            )
        else:
            raise CertificateError(f"unknown certificate kind {kind!r}")
        if kind.startswith("witness-"):  # the fields both witness kinds share
            cert = cls(
                **head,
                coloring=_parse_coloring(fields),
                witness=read(_one(fields, "witness")),
                images=[read(t) for t in _one(fields, "images").split()],
                color=int(_one(fields, "color")),
                checked=int(_one(fields, "checked")),
            )
    except CertificateError:
        raise
    except (HjlabError, ValueError) as e:
        raise CertificateError(f"bad field value: {e}") from None
    if fields:
        raise CertificateError(f"field {next(iter(fields))!r} is not a {kind} field")
    # one byte form: another spelling of the same values (a sign, a leading
    # zero, a dotted word, a repeated table key, another field order) is no
    # certificate, even when resealed
    if _payload_lines(cert) != lines[:-2]:
        raise CertificateError("certificate is not in its rendered form")
    return cert


# -- verification --------------------------------------------------------


def _words_claim(cert):
    """The carrier test, family, image coloring and image count of a
    witness-words claim; a word of R has one image per letter."""
    if cert.reduction == "none":
        require_fit(cert.coloring, "words")
        color_of = cert.coloring.color_of
    elif cert.reduction == "vdw":
        require_fit(cert.coloring, "integers")
        color_of = PullbackColoring(cert.coloring, sum).color_of
    else:
        raise VerificationError(f"unknown reduction {cert.reduction!r}")
    ws = WordSemigroup(cert.alphabet)
    return ws.valid_word, substitution_family(ws), color_of, cert.alphabet


def _finite_claim(cert):
    """The same four for a witness-finite claim, whose image count varies."""
    require_fit(cert.coloring, "semigroup elements")
    S = FiniteSemigroup(cert.table)
    family = RetractionFamily(SubsetQuery.from_members(S, cert.t_members), cert.retractions)
    return (lambda v: 0 <= v < S.order), family, cert.coloring.color_of, None


def _verify_witness(cert, in_carrier, family, color_of, image_count):
    """The witness claim: the witness lies in R, its recomputed images are
    the stated ones, and they all have the stated color.  Listing the images
    takes time in ``image_count``, so a list of another length fails first."""
    if not in_carrier(cert.witness):
        return False, "witness is outside the carrier"
    if family.view.contains(cert.witness):
        return False, "witness lies in T (must be in R)"
    if image_count not in (None, len(cert.images)) or family.images(cert.witness) != cert.images:
        return False, "stated images differ from the recomputed retraction images"
    colors = {color_of(x) for x in cert.images}
    if colors != {cert.color}:
        return False, f"image colors {sorted(colors)} do not match color {cert.color}"
    return True, "ok"


def _verify_coloring(cert):
    (a, size), length = cert.params, len(cert.assignment)
    inst = INSTANCES[cert.family](a, cert.r, size)
    if length != inst.num_vertices:
        return False, f"assignment length {length} is not the {cert.family} vertex count"
    if any(c < 0 or c >= cert.r for c in cert.assignment):
        return False, "color out of range"
    if not verify_proper_coloring(inst.build_edges(), cert.assignment):
        return False, f"an edge of the {cert.family} hypergraph is monochromatic"
    return True, "ok"


def verify_certificate(cert):
    """Re-check a certificate by direct evaluation; returns (ok, message)."""
    try:
        if isinstance(cert, WitnessWordsCertificate):
            return _verify_witness(cert, *_words_claim(cert))
        if isinstance(cert, WitnessFiniteCertificate):
            return _verify_witness(cert, *_finite_claim(cert))
        if isinstance(cert, ColoringCertificate):
            return _verify_coloring(cert)
    except (HjlabError, ValueError) as e:
        return False, f"verification error: {e}"
    return False, "unknown certificate object"


def verify_certificate_text(text):
    try:
        cert = parse_certificate(text)
    except CertificateError as e:
        return False, str(e)
    return verify_certificate(cert)


def save_certificate(cert, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(render_certificate(cert))


# -- builders used by the CLI and tests ----------------------------------


def _witness_certificate(cls, coloring, outcome, **head):
    return cls(**head, coloring=coloring, witness=outcome.witness, images=list(outcome.images),
               color=outcome.color, checked=outcome.checked)


def words_witness_certificate(ws, coloring, outcome, reduction="none"):
    return _witness_certificate(WitnessWordsCertificate, coloring, outcome,
                                alphabet=ws.alphabet_size, reduction=reduction)


def finite_witness_certificate(S, family, coloring, outcome):
    return _witness_certificate(WitnessFiniteCertificate, coloring, outcome,
                                table=[[int(x) for x in row] for row in S.table],
                                t_members=family.view.members(),
                                retractions=family.maps.tolist())


def coloring_certificate(inst, result):
    """Certificate for a SAT ``ColoringResult`` of the instance ``inst``."""
    return ColoringCertificate(inst.family, inst.params, inst.r, list(result.coloring), result.nodes)


def hj_coloring_certificate(n, N, r, result):
    return coloring_certificate(hj_instance(n, r, N), result)


def vdw_coloring_certificate(k, M, r, result):
    return coloring_certificate(vdw_instance(k, r, M), result)
