"""Object locators and the unstructured-object class registry.

A locator is a specially formatted string with three forms:

* relative path (the default): ``abc/001.jpg`` resolves against the
  configured data root;
* alias path: ``$mydir1/abc/001.jpg`` resolves ``mydir1`` through the
  alias table (CLI flag beats the library caller's ``config_aliases``
  beats ``DSDL_ALIAS_<name>`` environment variables);
* object id: ``::cuhk.ie::abcd1234xyz`` resolves through a pluggable
  key-value mapper supplied by the embedder.

Loaders for unstructured classes receive an already-open reader, never
an address: interpreting the locator and constructing the reader is the
data system's job, loading from the reader is the class's job.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping

from .diagnostics import Diagnostic, DsdlError, LocatorError, echo, error, expect, warning
from .schema import BUILTINS, MEDIA_BUILTINS
from .slotted import Frozen, set_field

ALIAS_ENV_PREFIX = "DSDL_ALIAS_"

_ALIAS_RE = re.compile(r"\$(?P<name>[A-Za-z_][A-Za-z0-9_]*)/(?P<rest>.+)", re.DOTALL)


class RelativePath(Frozen):
    __slots__ = ("path", "text")
    kind = "relative"


class AliasPath(Frozen):
    __slots__ = ("alias", "remainder", "text")
    kind = "alias"


class ObjectId(Frozen):
    __slots__ = ("domain", "object_id", "text")
    kind = "object-id"

ObjectLocator = RelativePath | AliasPath | ObjectId


def parse_locator(text: str) -> ObjectLocator:
    """Classify ``text`` into one of the three locator forms.

    Total for non-empty strings without a special prefix (they are
    relative paths); raises :class:`LocatorError` with ``LOC_SYNTAX``
    for the empty string and malformed ``$``/``::`` forms.
    """
    if not isinstance(text, str) or text == "":
        raise LocatorError(error("LOC_SYNTAX", "", "object locator must be a non-empty string"))
    if text.startswith("::"):
        body = text[2:]
        domain, sep, object_id = body.partition("::")
        if not sep or not domain or not object_id:
            raise LocatorError(
                error("LOC_SYNTAX", "", f"object-id locator must be ::<domain>::<id>, got {echo(text, show=repr)}")
            )
        return ObjectId(domain, object_id, text)
    if text.startswith("$"):
        m = _ALIAS_RE.fullmatch(text)
        if not m:
            raise LocatorError(
                error("LOC_SYNTAX", "", f"alias locator must be $<alias>/<path>, got {echo(text, show=repr)}")
            )
        return AliasPath(m.group("name"), m.group("rest"), text)
    return RelativePath(text, text)


IdMapper = Callable[[str, str], "str | None"]


class ResolutionEnvironment(Frozen):
    """Everything locator resolution may consult; nothing ambient."""

    __slots__ = ("data_root", "aliases", "id_mapper")

    def __init__(self, data_root: str | None = None, aliases: Mapping[str, str] | None = None, id_mapper=None):
        expect(data_root, (str, type(None)), "ResolutionEnvironment() data_root must be a str or None")
        expect(aliases, (Mapping, type(None)), "ResolutionEnvironment() aliases must be a mapping or None")
        for name, target in (aliases or {}).items():
            expect(name, str, "ResolutionEnvironment() aliases must map str names")
            expect(target, str, "ResolutionEnvironment() aliases must map to str targets")
        expect(id_mapper, (Callable, type(None)), "ResolutionEnvironment() id_mapper must be callable or None")
        set_field(self, "data_root", data_root)
        set_field(self, "aliases", {} if aliases is None else aliases)
        set_field(self, "id_mapper", id_mapper)

    @classmethod
    def from_sources(
        cls,
        data_root: str | None = None,
        cli_aliases: Mapping[str, str] | None = None,
        config_aliases: Mapping[str, str] | None = None,
        environ: Mapping[str, str] | None = None,
        id_mapper: IdMapper | None = None,
    ) -> "ResolutionEnvironment":
        """Merge alias sources: CLI flag > caller's ``config_aliases`` > environment."""
        aliases: dict[str, str] = {}
        for key, value in (environ or {}).items():
            if key.startswith(ALIAS_ENV_PREFIX) and len(key) > len(ALIAS_ENV_PREFIX):
                aliases[key[len(ALIAS_ENV_PREFIX):]] = value
        aliases.update(config_aliases or {})
        aliases.update(cli_aliases or {})
        return cls(data_root, aliases, id_mapper)


def _join(root: str, relative: str) -> str:
    # locator separators normalize to '/'; the root is kept verbatim
    relative = relative.replace("\\", "/")
    segments = [seg for seg in relative.split("/") if seg not in ("", ".")]
    if ".." in segments:
        raise LocatorError(
            error("PATH_ESCAPE", "", f"locator {echo(relative, show=repr)} traverses above the root")
        )
    base = root[:-1] if root.endswith("/") and len(root) > 1 else root
    return base + "/" + "/".join(segments)


def resolve_locator(loc: ObjectLocator, env: ResolutionEnvironment) -> str:
    """Turn a parsed locator into an address string.

    Raises :class:`LocatorError`: ``DATA_ROOT_UNSET``,
    ``ALIAS_UNDEFINED``, ``ID_MAPPER_MISSING``, ``ID_NOT_FOUND``, or
    ``PATH_ESCAPE`` for ``..`` traversal.
    """
    expect(env, ResolutionEnvironment, "resolve_locator() env must be a ResolutionEnvironment")
    if isinstance(loc, RelativePath):
        if env.data_root is None:
            raise LocatorError(
                error("DATA_ROOT_UNSET", "", "no data root configured for relative locator")
            )
        return _join(env.data_root, loc.path)
    if isinstance(loc, AliasPath):
        target = env.aliases.get(loc.alias)
        if target is None:
            raise LocatorError(
                error("ALIAS_UNDEFINED", "", f"alias {echo(loc.alias, show=repr)} has no binding")
            )
        return _join(target, loc.remainder)
    if isinstance(loc, ObjectId):
        if env.id_mapper is None:
            raise LocatorError(
                error("ID_MAPPER_MISSING", "", "no id mapper configured for object-id locator")
            )
        address = env.id_mapper(loc.domain, loc.object_id)
        if address is None:
            raise LocatorError(
                error("ID_NOT_FOUND", "", f"no address for ::{loc.domain}::{loc.object_id}")
            )
        return address
    raise TypeError(f"not an ObjectLocator: {loc!r}")


class LoadedMedia(Frozen):
    """What the stub loaders return: raw payload plus the descriptor."""

    __slots__ = ("payload", "descr")
    _defaults = {"descr": None}


def _stub_loader(reader, descr) -> LoadedMedia:
    return LoadedMedia(reader.read(), descr)


Loader = Callable[[object, "Mapping | None"], object]


class MediaClassRegistry:
    """Loader contracts for unstructured-object classes.

    The builtin classes come pre-registered with stub loaders that
    return the byte payload and the descriptor. Registering an existing
    name replaces it (with a warning); once frozen the registry rejects
    further registration, making it safe to share across threads.
    """

    def __init__(self):
        self._loaders: dict[str, Loader] = {name: _stub_loader for name in MEDIA_BUILTINS}
        self._frozen = False

    def names(self) -> tuple[str, ...]:
        return tuple(self._loaders)

    def extension_names(self) -> tuple[str, ...]:
        return tuple(name for name in self._loaders if name not in BUILTINS)

    def __contains__(self, name: str) -> bool:
        return name in self._loaders

    def get(self, name: str) -> Loader | None:
        return self._loaders.get(name)

    def freeze(self) -> None:
        self._frozen = True

    def register(self, name: str, loader: Loader) -> Diagnostic | None:
        """Register ``loader`` under ``name``; returns an optional warning.

        Raises :class:`DsdlError` with ``REGISTER_CONFLICT`` when the
        name collides with a non-media builtin or the registry is
        frozen. ``loader`` is callable or has a callable ``load``.
        """
        expect(name, str, "register() name must be a str")
        expect(getattr(loader, "load", loader), Callable, "register() loader must be callable or have a callable load")
        if self._frozen:
            raise DsdlError(error("REGISTER_CONFLICT", name, "media registry is frozen"))
        if name in BUILTINS and name not in MEDIA_BUILTINS:
            raise DsdlError(
                error("REGISTER_CONFLICT", name, f"{name!r} is a non-media builtin type")
            )
        replaced = name in self._loaders
        self._loaders[name] = loader
        if replaced:
            return warning("MEDIA_OVERRIDE", name, f"loader for {name!r} was replaced")
        return None


_default_registry = MediaClassRegistry()


def default_media_registry() -> MediaClassRegistry:
    return _default_registry


def register_media_class(name: str, loader: Loader, registry: MediaClassRegistry | None = None):
    """Module-level convenience over :meth:`MediaClassRegistry.register`."""
    expect(registry, (MediaClassRegistry, type(None)), "register_media_class() registry must be a MediaClassRegistry or None")
    return (_default_registry if registry is None else registry).register(name, loader)


ReaderProvider = Callable[[str], object]


def load_object(
    class_name: str,
    loc: ObjectLocator | str,
    descr: Mapping | None,
    env: ResolutionEnvironment,
    reader_provider: ReaderProvider,
    registry: MediaClassRegistry | None = None,
):
    """Resolve ``loc``, open a reader, and hand it to the class loader.

    The loader never sees the address, only the open reader. Loader
    exceptions are wrapped as ``LOADER_FAILURE`` with the address for
    context; resolution errors propagate unchanged.
    """
    expect(class_name, str, "load_object() class_name must be a str")
    expect(reader_provider, Callable, "load_object() reader_provider must be callable")
    expect(registry, (MediaClassRegistry, type(None)), "load_object() registry must be a MediaClassRegistry or None")
    loader = (_default_registry if registry is None else registry).get(class_name)
    if loader is None:
        raise DsdlError(
            error("UNKNOWN_MEDIA_CLASS", class_name, f"no unstructured class {class_name!r} registered")
        )
    if isinstance(loc, str):
        loc = parse_locator(loc)
    address = resolve_locator(loc, env)
    reader = reader_provider(address)
    try:
        load = getattr(loader, "load", loader)
        return load(reader, descr)
    except Exception as exc:
        raise DsdlError(
            error("LOADER_FAILURE", address, f"loader for {class_name!r} failed: {exc}")
        ) from exc
    finally:
        close = getattr(reader, "close", None)
        if callable(close):
            close()
