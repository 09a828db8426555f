"""``repro.datasets`` — synthetic city datasets and the §V evaluation protocol.

The names load on first use (PEP 562, see :mod:`repro._lazy`): a process
that only needs a city preset loads neither the query protocol nor the
splits.
"""

from .._lazy import lazy_exports

#: submodule -> the names ``repro.datasets`` re-exports from it
_EXPORTS = {
    "presets": ("CHENGDU", "CITY_PRESETS", "GERMANY", "PORTO", "XIAN",
                "get_preset"),
    "queries": ("QueryDatabase", "build_query_database", "distort",
                "downsample", "odd_even_split", "perturb_instance"),
    "splits": ("DatasetSplits", "downstream_split", "partition"),
    "synthetic": ("CityPreset", "generate_city", "generate_trajectory"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
