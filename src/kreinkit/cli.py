"""Scenario-driven command line front end.

Subcommands:
  gen       emit a seeded, self-contained scenario file (JSON)
  check     run the full identity suite on a scenario, emit a report
  mfunc     tabulate a Weyl-Titchmarsh operator over the scenario's z grid
  halfline  run the closed-form half-line verification

File formats are plain UTF-8 JSON with a mandatory "version": 1.  Complex
scalars serialize as two-element arrays [re, im]; matrices as row-major
nested lists of those pairs.  Serialization is canonical (sorted keys,
two-space indent, trailing newline), so identical inputs give byte-identical
outputs.  Reports carry no timestamps by design.  Their provenance digests
(scenario_sha256, request_sha256) hash the decoded values in a versioned
binary layout (_digest), not the bytes of any file.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
input or I/O error.  check reads every record from checks.run: the model
layer (v1 = I, the reference's parameter), then the suites of checks.SUITES.
An error building the model becomes the failed record build_model, and one
inside a suite a failed record named after the suite (model_layer,
weyl_suite, p_function_suite, angle_suite, krein_vs_direct, lft_suite,
vonneumann_link), with an "error" tag and the sentinel max_residual -1.0;
the later suites still run.  The model layer is the first suite, so an
error there, too, is a failed record and exit 1.

Every suite runs on N+ for every pair.  Krein's formula and the angle-form
checks use the sine/cosine form of the paper's (tan alpha - M1(z))^{-1},
which needs no primeness decision.  The angle decides the pair's one rank
(Cayley eigenvalues farther than DEFAULT_TOL from 1), P(z)|N+'s at every
z; primeness, full rank, sets the note of relatively_prime_consistency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import halfline as hl
from . import krein as kr
from . import checks as ck
from .checks import error_record, record
from .errors import BadDimensions, BranchCut, KreinKitError, NotRelativelyPrime
from .extension import ExtensionParameter, build_model, extension_from_parameter, parameter_of
from .numerics import frob, hermitian_eig

TOOL_NAME = "kreinkit"

MAX_DIMENSION = 64
QUADRATURE_TOL = 1e-6  # halfline: bound on the quadrature round-trip residual
ANGLE_CLAMP = 1.4  # keeps generated pairs 0.17 away from the degenerate angle

FIXED_Z16 = (
    1j, 2j, -3j,
    1 + 1j, -1 + 1j, 1 - 2j, -1 - 2j,
    1 + 2j, -1 + 2j, 0.5j, -0.7 + 0.3j,
    2 - 1j, -2 - 1j, 3j, 0.25 + 1.5j, -1.5 - 0.5j,
)


def parse_complex(text: str) -> complex:
    """Parse "a+bi" command-line literals ("i" or "j" imaginary unit)."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    cleaned = re.sub(r"(?<![0-9.])j", "1j", cleaned)
    try:
        value = complex(cleaned)
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"complex literal {text!r} is not finite")
    return value


def _parse_list(text: str, kind: str):
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError(f"empty {kind} list")
    if kind == "real":
        out = []
        for part in items:
            value = float(part)
            if not math.isfinite(value):
                raise ValueError(f"non-finite value in list: {part!r}")
            out.append(value)
        return out
    return [parse_complex(part) for part in items]


# ---------------------------------------------------------------------------
# JSON encoding of complex scalars and matrices


def _c_to_json(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _m_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], -1).tolist()


def _c_from_json(obj, where: str) -> complex:
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in obj)):
        raise BadDimensions(f"{where}: expected [re, im], got {obj!r}")
    value = complex(float(obj[0]), float(obj[1]))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise BadDimensions(f"{where}: non-finite entry")
    return value


def _m_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise BadDimensions(f"{where}: expected a nested list matrix")
    width = len(obj[0])
    if width == 0 or any(len(r) != width for r in obj):
        raise BadDimensions(f"{where}: ragged or empty matrix")
    return np.array(
        [[_c_from_json(x, where) for x in row] for row in obj], dtype=np.complex128
    )


def _dump_json(obj) -> str:
    """The canonical layout: json.dumps(obj, sort_keys=True, indent=2) plus
    a newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Scenario files


SCENARIO_DIGEST_LAYOUT = "kreinkit-scenario-digest/1"
HALFLINE_DIGEST_LAYOUT = "kreinkit-halfline-request-digest/1"


def _digest(header: dict, arrays) -> str:
    """SHA-256 of one provenance layout: the header as _dump_json writes it,
    then each array's little-endian complex128 bytes in C order.  Real or
    Fortran-order input hashes like its complex128 C-order copy, which is
    what to_json writes; -0.0 and 0.0 stay distinct.  The header's "layout"
    tag must change whenever the layout does."""
    digest = hashlib.sha256(_dump_json(header).encode("utf-8"))
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<c16").tobytes())
    return digest.hexdigest()


def _all_finite(m) -> bool:
    return bool(np.isfinite(np.asarray(m, dtype=np.complex128)).all())


def _checked_tolerance(tol) -> float:
    """tol as a float, if it lies in the report's range [1e-14, 1e-3]."""
    tol = float(tol)
    if not (1e-14 <= tol <= 1e-3):
        raise BadDimensions("tolerance must lie in [1e-14, 1e-3]")
    return tol


@dataclass
class ScenarioFile:
    """Validated in-memory form of a scenario JSON document."""

    dimension: int
    deficiency: int
    parameter: dict
    z_grid: list
    tolerance: float = 1e-9
    seed: int = 0
    a1: np.ndarray | None = None
    nplus: np.ndarray | None = None
    version: int = 1

    def __post_init__(self):
        # exact types: nothing is coerced, and bool is a subclass of int
        for key in ("version", "dimension", "deficiency", "seed"):
            value = getattr(self, key)
            if type(value) is not int:
                raise BadDimensions(f"{key} must be an integer, got {value!r}")
        if type(self.tolerance) not in (int, float):
            raise BadDimensions(f"tolerance must be a number, got {self.tolerance!r}")
        for key in ("a1", "nplus"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, np.ndarray):
                raise BadDimensions(f"{key} must be decoded before validation")
        if self.version != 1:
            raise BadDimensions(f"unsupported scenario version {self.version!r}")
        n, d = self.deficiency, self.dimension
        if not (1 <= n <= d <= MAX_DIMENSION):
            raise BadDimensions(
                f"need 1 <= deficiency <= dimension <= {MAX_DIMENSION}, "
                f"got deficiency={n}, dimension={d}"
            )
        if not (isinstance(self.parameter, dict) and len(self.parameter) == 1
                and next(iter(self.parameter)) in ("angle", "unitary")):
            raise BadDimensions('parameter must be {"angle": H} or {"unitary": V}')
        mat = next(iter(self.parameter.values()))
        if not isinstance(mat, np.ndarray):
            raise BadDimensions("parameter matrix must be decoded before validation")
        if mat.shape != (n, n):
            raise BadDimensions(
                f"parameter matrix shape {mat.shape} does not match deficiency {n}"
            )
        if not isinstance(self.z_grid, (list, tuple)):
            raise BadDimensions("z_grid must be a list")
        if not self.z_grid:
            raise BadDimensions("z_grid must be nonempty")
        if not all(isinstance(z, (int, float, complex, np.number))
                   and not isinstance(z, bool) for z in self.z_grid):
            raise BadDimensions("z_grid entries must be numbers")
        self.z_grid = [complex(z) for z in self.z_grid]
        if not _all_finite(self.z_grid):
            raise BadDimensions("z_grid has a non-finite entry")
        if any(z.imag == 0.0 or abs(z) > 1e150 for z in self.z_grid):
            raise BadDimensions("z_grid entries must be nonreal with |z| <= 1e150")
        self.tolerance = _checked_tolerance(self.tolerance)
        if self.a1 is not None and self.a1.shape != (d, d):
            raise BadDimensions(f"a1 shape {self.a1.shape} does not match dimension {d}")
        if self.nplus is not None and self.nplus.shape != (d, n):
            raise BadDimensions(
                f"nplus shape {self.nplus.shape} does not match (dimension, deficiency)"
            )
        for name, m in (("a1", self.a1), ("nplus", self.nplus), ("parameter", mat)):
            if m is not None and not _all_finite(m):
                raise BadDimensions(f"{name} has a non-finite entry")

    @classmethod
    def from_json(cls, obj) -> "ScenarioFile":
        if not isinstance(obj, dict):
            raise BadDimensions("scenario document must be a JSON object")
        known = {"version", "seed", "dimension", "deficiency", "a1", "nplus",
                 "parameter", "z_grid", "tolerance"}
        unknown = set(obj) - known
        if unknown:
            raise BadDimensions(f"unknown scenario fields: {sorted(unknown)}")
        for key in ("version", "dimension", "deficiency", "parameter", "z_grid"):
            if key not in obj:
                raise BadDimensions(f"scenario is missing the {key!r} field")
        par = obj["parameter"]
        if not (isinstance(par, dict) and len(par) == 1):
            raise BadDimensions('parameter must be {"angle": H} or {"unitary": V}')
        tag = next(iter(par))
        parameter = {tag: _m_from_json(par[tag], f"parameter.{tag}")}
        z_grid = obj["z_grid"]
        if not isinstance(z_grid, list):
            raise BadDimensions("z_grid must be a list")
        zs = [_c_from_json(z, "z_grid") for z in z_grid]
        a1 = None if obj.get("a1") is None else _m_from_json(obj["a1"], "a1")
        nplus = None if obj.get("nplus") is None else _m_from_json(obj["nplus"], "nplus")
        return cls(
            version=obj["version"],
            seed=obj.get("seed", 0),
            dimension=obj["dimension"],
            deficiency=obj["deficiency"],
            a1=a1,
            nplus=nplus,
            parameter=parameter,
            z_grid=zs,
            tolerance=obj.get("tolerance", 1e-9),
        )

    def to_json(self) -> dict:
        tag = next(iter(self.parameter))
        return {
            "version": 1,
            "seed": self.seed,
            "dimension": self.dimension,
            "deficiency": self.deficiency,
            "a1": None if self.a1 is None else _m_to_json(self.a1),
            "nplus": None if self.nplus is None else _m_to_json(self.nplus),
            "parameter": {tag: _m_to_json(self.parameter[tag])},
            "z_grid": [_c_to_json(z) for z in self.z_grid],
            "tolerance": self.tolerance,
        }

    def sha256(self) -> str:
        """The provenance digest (see _digest) of the decoded values: the
        header names the layout, the scalars, the parameter tag, which of
        a1 and nplus are present, and the z-grid length; the payload is
        a1, nplus, the parameter matrix and the z-grid."""
        tag, mat = next(iter(self.parameter.items()))
        header = {
            "layout": SCENARIO_DIGEST_LAYOUT,
            "version": int(self.version),
            "seed": self.seed,
            "dimension": self.dimension,
            "deficiency": self.deficiency,
            "tolerance": self.tolerance,
            "parameter": tag,
            "a1": self.a1 is not None,
            "nplus": self.nplus is not None,
            "z_grid": len(self.z_grid),
        }
        arrays = [m for m in (self.a1, self.nplus) if m is not None]
        return _digest(header, arrays + [mat, self.z_grid])


def _seeded_matrices(dim: int, deficiency: int, seed: int):
    """Deterministic (a1, nplus, angle) draw; the documented generation rule."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a1 = (g + g.conj().T) / 2.0
    g2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g2)
    phases = np.diag(r).copy()
    phases[np.abs(phases) == 0.0] = 1.0
    q = q * (phases / np.abs(phases))
    nplus = q[:, :deficiency]
    g3 = rng.standard_normal((deficiency, deficiency)) \
        + 1j * rng.standard_normal((deficiency, deficiency))
    h = (g3 + g3.conj().T) / 2.0
    evs, vec = np.linalg.eigh(h)
    evs = np.clip(evs, -ANGLE_CLAMP, ANGLE_CLAMP)
    angle = (vec * evs) @ vec.conj().T
    angle = (angle + angle.conj().T) / 2.0
    return a1, nplus, angle


def generate_scenario(dim: int, deficiency: int, seed: int) -> ScenarioFile:
    """Seeded scenario with explicit matrices, the fixed 16-point z grid and
    the default tolerance.  Deterministic: same arguments, same document."""
    a1, nplus, angle = _seeded_matrices(int(dim), int(deficiency), int(seed))
    return ScenarioFile(
        seed=int(seed),
        dimension=int(dim),
        deficiency=int(deficiency),
        a1=a1,
        nplus=nplus,
        parameter={"angle": angle},
        z_grid=list(FIXED_Z16),
        tolerance=1e-9,
    )


def materialize(scenario: ScenarioFile):
    """Build (model, ext1, ext2, v2) from a scenario.

    Absent a1/nplus are regenerated from the seed.  An "angle" parameter H
    (Hermitian, deficiency frame) maps to the unitary v2 = -exp(2iH) v1 with
    v1 the reference extension's parameter (the identity in the model's
    coordinate convention); a "unitary" parameter is used as v2 directly.
    """
    a1, nplus = scenario.a1, scenario.nplus
    if a1 is None or nplus is None:
        gen_a1, gen_nplus, _ = _seeded_matrices(
            scenario.dimension, scenario.deficiency, scenario.seed
        )
        a1 = gen_a1 if a1 is None else a1
        nplus = gen_nplus if nplus is None else nplus
    model = build_model(a1, nplus)
    ext1 = model.reference
    tag, mat = next(iter(scenario.parameter.items()))
    if tag == "unitary":
        v2 = mat
    else:
        herm = (mat + mat.conj().T) / 2.0
        if frob(mat - herm) > 1e-12 * (1.0 + frob(mat)):
            raise BadDimensions("angle parameter must be Hermitian")
        dec = hermitian_eig(herm)
        rotation = dec.compose(np.exp(2j * dec.eigenvalues))
        v1 = parameter_of(model, ext1).v
        v2 = -rotation @ v1
    ext2 = extension_from_parameter(model, ExtensionParameter(v2))
    return model, ext1, ext2, v2


# ---------------------------------------------------------------------------
# Check reports


def _finish_report(checks: list, provenance: dict) -> dict:
    checks = sorted(checks, key=lambda rec: rec["name"])
    summary = "pass" if all(rec["pass"] for rec in checks) else "fail"
    return {
        "version": 1,
        "checks": checks,
        "summary": summary,
        "provenance": provenance,
    }


def _provenance(key: str, digest: str) -> dict:
    return {key: digest, "tool": TOOL_NAME, "tool_version": __version__}


def run_checks(scenario: ScenarioFile, tol_override: float | None = None) -> dict:
    """Execute the full identity suite on one scenario.

    A record passes iff max_residual <= tolerance.  A KreinKitError in
    materialize, or in a suite of checks.run, becomes one failed record (see
    the module docstring), after the records the suite yielded.

    Every check reads P(z), M(z) and the pair's data from one
    krein.PairContext, so each is computed once; it is dropped on return.
    """
    tol = _checked_tolerance(scenario.tolerance if tol_override is None else tol_override)
    provenance = _provenance("scenario_sha256", scenario.sha256())
    try:
        model, ext1, ext2, v2 = materialize(scenario)
    except KreinKitError as exc:
        return _finish_report([error_record("build_model", tol, exc)], provenance)
    pair = kr.PairContext(model, ext1, ext2)
    records = ck.run(pair, np.eye(model.deficiency), v2, scenario.z_grid, tol)
    return _finish_report(list(records), provenance)


def tabulate_m(scenario: ScenarioFile, which: int) -> dict:
    """Tabulate M(z) for extension 1 (reference) or 2 over the z grid.

    Rows carry the matrix, lambda_min(Im z * Im M) and the Herglotz lower
    bound; rows where z collides with the spectrum are flagged, not fatal.
    """
    if which not in (1, 2):
        raise BadDimensions("which must be 1 or 2")
    model, ext1, ext2, _ = materialize(scenario)
    ext = ext1 if which == 1 else ext2
    rows = []
    for z in scenario.z_grid:
        try:
            m = kr.weyl_operator(ext, model.nplus, z)
        except KreinKitError as exc:
            rows.append({"z": _c_to_json(z), "error": type(exc).__name__})
            continue
        rows.append({
            "z": _c_to_json(z),
            "m": _m_to_json(m),
            "lambda_min": ck.herglotz_form(z, m)[1],
            "herglotz_bound": kr.herglotz_lower_bound(z),
        })
    return {
        "version": 1,
        "which": which,
        "rows": rows,
        "provenance": _provenance("scenario_sha256", scenario.sha256()),
    }


def halfline_command(alpha2_values, z_values, tol: float = 1e-10) -> dict:
    """Run the half-line verification; invalid grid points become flagged
    failed records instead of aborting the run.  The closed-form laws
    (verify_halfline) and the quadrature round trip (quadrature_roundtrip)
    each run behind an error boundary of their own."""
    checks = []
    good_alpha = []
    for a2 in alpha2_values:
        try:
            hl.HalflineScenario(float(a2))
            good_alpha.append(float(a2))
        except (NotRelativelyPrime, ValueError) as exc:
            checks.append(error_record(f"alpha2_validation[{a2:.6g}]", tol, exc))
    good_z = []
    for z in z_values:
        z = complex(z)
        try:
            if abs(z) > 1e150:  # as for a scenario's z_grid
                raise BadDimensions(f"|z| = {abs(z):.3g} exceeds 1e150")
            hl.sqrt_upper(z)
            good_z.append(z)
        except (BadDimensions, BranchCut) as exc:
            checks.append(error_record(f"z_validation[{z:.6g}]", tol, exc))
    z_array = np.array(good_z, dtype=np.complex128)
    # the pole rule of p12 and m2 on the whole (alpha2, z) grid, tan a2 as
    # a column, as verify_halfline applies it: one record per pole, in
    # row-major order, each with the note of its own point
    tan_column = np.array([math.tan(a2) for a2 in good_alpha]).reshape(-1, 1)
    _, _, poles = hl._pole_rule(z_array, tan_column)
    for row, col in np.argwhere(poles):
        a2, z = good_alpha[row], good_z[col]
        checks.append(error_record(
            f"pole_validation[alpha2={a2:.6g},z={z:.6g}]", tol, hl._pole_error(z)
        ))
    if good_alpha and good_z and not poles.any():
        # the closed-form laws and the quadrature round trip fail on their own
        try:
            residuals = hl.verify_halfline(tuple(good_z), tuple(good_alpha))
            checks.extend(record(name, value, tol) for name, value in residuals.items())
        except KreinKitError as exc:
            checks.append(error_record("verify_halfline", tol, exc))
        try:
            checks.append(record("quadrature_roundtrip",
                                 hl.quadrature_roundtrip(tuple(good_z)), QUADRATURE_TOL))
        except KreinKitError as exc:
            checks.append(error_record("quadrature_roundtrip", QUADRATURE_TOL, exc))
    alpha2 = [float(a) for a in alpha2_values]
    zs = [complex(z) for z in z_values]
    digest = _digest(
        {"layout": HALFLINE_DIGEST_LAYOUT, "alpha2": len(alpha2), "z": len(zs), "tol": tol},
        (alpha2, zs),
    )
    return _finish_report(checks, _provenance("request_sha256", digest))


# ---------------------------------------------------------------------------
# Entry point


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_scenario(path: str) -> ScenarioFile:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ScenarioFile.from_json(doc)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="finite-model toolkit for self-adjoint extension resolvent formulas",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a seeded scenario file")
    gen.add_argument("--dim", type=int, required=True, help="ambient dimension N")
    gen.add_argument("--def", dest="deficiency", type=int, required=True,
                     help="deficiency index n")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    chk = commands.add_parser("check", help="run the identity suite on a scenario")
    chk.add_argument("scenario", help="scenario JSON file")
    chk.add_argument("--tol", type=float, default=None, help="tolerance override")
    chk.add_argument("-o", "--output", default=None, help="report path (default stdout)")

    mfn = commands.add_parser("mfunc", help="tabulate a Weyl-Titchmarsh operator")
    mfn.add_argument("scenario", help="scenario JSON file")
    mfn.add_argument("--which", type=int, choices=(1, 2), required=True,
                     help="1 = reference extension, 2 = parameter extension")
    mfn.add_argument("-o", "--output", default=None, help="table path (default stdout)")

    half = commands.add_parser("halfline", help="verify the half-line closed forms")
    half.add_argument("--alpha2", default=None,
                      help="comma-separated boundary angles (default: built-in grid)")
    half.add_argument("--z", default=None,
                      help='comma-separated complex points, e.g. "1+2i,-3i"')
    half.add_argument("--tol", type=float, default=1e-10)
    half.add_argument("-o", "--output", default=None, help="report path (default stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            doc = generate_scenario(args.dim, args.deficiency, args.seed).to_json()
        elif args.command == "mfunc":
            doc = tabulate_m(_load_scenario(args.scenario), args.which)
        elif args.command == "check":
            doc = run_checks(_load_scenario(args.scenario), args.tol)
        else:
            alpha2 = (list(hl.DEFAULT_ALPHA2) if args.alpha2 is None
                      else _parse_list(args.alpha2, "real"))
            zs = (list(hl.DEFAULT_Z) if args.z is None
                  else _parse_list(args.z, "complex"))
            _checked_tolerance(args.tol)
            doc = halfline_command(alpha2, zs, args.tol)
        _emit(_dump_json(doc), args.output)
        if args.command in ("gen", "mfunc"):
            return 0
        # check and halfline write a report, whose summary sets the exit code
        if args.output not in (None, "-"):
            sys.stdout.write(f"{doc['summary']}: see {args.output}\n")
        return 0 if doc["summary"] == "pass" else 1
    except (KreinKitError, ValueError, OSError) as exc:
        sys.stderr.write(f"{TOOL_NAME}: error: {exc}\n")
        return 2
