"""Real Pauli groups, binary symplectic geometry, and magic configurations.

The package exposes four layers: exact Pauli algebra (:mod:`bksgeom.pauli`),
GF(2) projective geometry (:mod:`bksgeom.geometry`), point-set
classification (:mod:`bksgeom.classify`), and Bell-Kochen-Specker
verification and search (:mod:`bksgeom.magic`, :mod:`bksgeom.search`),
with the built-in four-qubit rectangle in :mod:`bksgeom.rectangle` and a
command line front end in :mod:`bksgeom.cli`.

Importing the package loads no submodule: a public name read from it
loads the submodule that defines it on first use (PEP 562), so a
command that never searches never compiles :mod:`bksgeom.search`.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SUBMODULE = {
    name: module
    for module, names in {
        "classify": "ClassificationLabel classify_set",
        "geometry": "Subspace SymplecticPoint enumerate_points intersect span symplectic_form",
        "magic": (
            "Context ContextError ContradictionCertificate MagicConfiguration complement_config"
            " context_sign exhaustive_nchv_check intersection_lines parity_witness shared_point"
        ),
        "pauli": (
            "ParseError PauliObservable commutes format_observable from_symplectic"
            " multiply parse_observable product_of_set to_symplectic"
        ),
        "rectangle": "magic_rectangle",
        "search": "SearchOptions enumerate_caps find_magic_rectangles find_mermin_squares",
    }.items()
    for name in names.split()
}

__all__ = [*sorted(_SUBMODULE), "__version__"]


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_SUBMODULE[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
