"""Type language and effect-functor registry.

Types are plain syntax trees: declared base symbols, arrows, products, and
effect applications ``Eff(F, t)``.  A :class:`Registry` owns the declared
base types, the effect functors with their capability flags, the natural
transformations (including handlers), and the adjunction pairing.  All
typing questions -- purity, effect stacks, applicability, the subtyping
preorder induced by effect application -- are answered against a registry.

The subtyping relation exposed here is the preorder generated by "wrap in
one more registered effect": ``Eff(F, t) <= t`` whenever ``F`` applies to
``t``, closed under transitivity.  It acts on the outermost effect stack
only; there is no congruence under arrows or products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

EffectId = str

CAPABILITIES = ("functor", "applicative", "monad")


class TypeSysError(Exception):
    """Base class for type-language and registry errors."""


class MalformedTypeError(TypeSysError):
    pass


class InapplicableFunctorError(TypeSysError):
    pass


class UnknownEffectError(TypeSysError):
    pass


class CapabilityError(TypeSysError):
    pass


class RegistryError(TypeSysError):
    pass


class _CachedHash:
    """Structural hash computed once; deep types sit in hot dictionaries."""

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._hash_key())
            object.__setattr__(self, "_hash", h)
            return h


@dataclass(frozen=True)
class Ty(_CachedHash):
    """Abstract type node; concrete forms below."""


@dataclass(frozen=True, eq=True)
class Base(Ty):
    name: str

    def _hash_key(self):
        return ("b", self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Arrow(Ty):
    dom: Ty
    cod: Ty

    def _hash_key(self):
        return ("a", self.dom, self.cod)

    def __str__(self) -> str:
        dom = f"({self.dom})" if isinstance(self.dom, Arrow) else str(self.dom)
        return f"{dom} -> {self.cod}"


@dataclass(frozen=True)
class Prod(Ty):
    left: Ty
    right: Ty

    def _hash_key(self):
        return ("p", self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class Eff(Ty):
    functor: EffectId
    inner: Ty

    def _hash_key(self):
        return ("e", self.functor, self.inner)

    def __str__(self) -> str:
        if isinstance(self.inner, (Arrow, Prod)):
            return f"{self.functor} ({self.inner})"
        return f"{self.functor} {self.inner}"


# dataclass generates per-class __hash__ for frozen classes; restore the
# caching one (equality stays structural)
for _cls in (Base, Arrow, Prod, Eff):
    _cls.__hash__ = _CachedHash.__hash__


@dataclass(frozen=True)
class FunctorDef:
    """A registered effect functor.

    ``applies_to`` is the set of admissible argument types: ``None`` means
    every well-formed type is admissible, otherwise only the listed types
    match (structurally).  ``commutative`` is meaningful only together with
    the monad capability.
    """

    id: EffectId
    capabilities: frozenset = field(default_factory=frozenset)
    commutative: bool = False
    applies_to: tuple | None = None

    def __post_init__(self):
        caps = self.capabilities
        unknown = caps - set(CAPABILITIES)
        if unknown:
            raise RegistryError(f"functor {self.id}: unknown capabilities {sorted(unknown)}")
        if "applicative" in caps and "functor" not in caps:
            raise RegistryError(f"functor {self.id}: applicative requires functor")
        if "monad" in caps and "applicative" not in caps:
            raise RegistryError(f"functor {self.id}: monad requires applicative")
        if self.commutative and "monad" not in caps:
            raise RegistryError(f"functor {self.id}: commutative is meaningful only for monads")


@dataclass(frozen=True)
class NatDef:
    """A registered natural transformation between effect words.

    Handlers are the special case with an empty target word; they resolve
    their source effect and must satisfy ``h . eta = id`` at the value
    level.  ``component`` names the built-in value-level implementation in
    ``lambda_eval``; ``default`` optionally carries a term evaluated when
    the implementation needs a fallback value (e.g. resolving an absent
    Maybe).
    """

    name: str
    source: tuple
    target: tuple
    is_handler: bool = False
    component: str = "identity"
    default: object = None

    def __post_init__(self):
        if self.is_handler and self.target != ():
            raise RegistryError(f"nat {self.name}: a handler must target the empty effect word")


class Registry:
    """Declared base types, functors, nats and adjunctions.

    Its declarations are built once (by the language loader or by tests)
    and then only read.  The registry itself is not read-only: parsing
    fills ``_combo_cache``, where :func:`effparse.combine.modes_by_type`
    keeps the mode sequences of each pair of child types it meets, without
    bound.
    """

    def __init__(self):
        self._bases: dict[str, Base] = {}
        self._functors: dict[EffectId, FunctorDef] = {}
        self._nats: dict[str, NatDef] = {}
        self._adjunctions: list[tuple[EffectId, EffectId]] = []
        self._combo_cache: dict = {}

    # -- construction ----------------------------------------------------

    def add_base_type(self, name: str) -> None:
        if name in self._bases:
            raise RegistryError(f"base type {name} declared twice")
        self._bases[name] = Base(name)

    def add_functor(self, fdef: FunctorDef) -> None:
        if fdef.id in self._functors:
            raise RegistryError(f"functor {fdef.id} declared twice")
        self._functors[fdef.id] = fdef

    def add_adjunction(self, left: EffectId, right: EffectId) -> None:
        for f in (left, right):
            if f not in self._functors:
                raise RegistryError(f"adjunction ({left} -| {right}): {f} is not a registered functor")
        pair = (left, right)
        if pair in self._adjunctions:
            raise RegistryError(f"adjunction ({left} -| {right}) declared twice")
        self._adjunctions.append(pair)

    def add_nat(self, ndef: NatDef) -> None:
        if ndef.name in self._nats:
            raise RegistryError(f"nat {ndef.name} declared twice")
        for f in (*ndef.source, *ndef.target):
            if f not in self._functors:
                raise RegistryError(f"nat {ndef.name}: {f} is not a registered functor")
        self._nats[ndef.name] = ndef

    # -- lookups ---------------------------------------------------------

    def base_type(self, name: str) -> Base:
        try:
            return self._bases[name]
        except KeyError:
            raise MalformedTypeError(f"undeclared base type {name}") from None

    def base_names(self) -> tuple:
        return tuple(self._bases)

    def functor(self, f: EffectId) -> FunctorDef:
        try:
            return self._functors[f]
        except KeyError:
            raise UnknownEffectError(f"unknown effect functor {f}") from None

    def functor_names(self) -> tuple:
        return tuple(self._functors)

    def nat(self, name: str) -> NatDef:
        try:
            return self._nats[name]
        except KeyError:
            raise UnknownEffectError(f"unknown natural transformation {name}") from None

    def nats(self) -> tuple:
        return tuple(self._nats.values())

    def adjunctions(self) -> tuple:
        return tuple(self._adjunctions)

    def is_adjunction(self, left: EffectId, right: EffectId) -> bool:
        return (left, right) in self._adjunctions

    def lowering_for(self, f: EffectId):
        """The registered lowering handler consuming ``f``, if any."""
        for nat in self._nats.values():
            if nat.is_handler and nat.component == "lower" and nat.source == (f,):
                return nat
        return None

    def has_cap(self, f: EffectId, cap: str) -> bool:
        return cap in self.functor(f).capabilities

    def require_cap(self, f: EffectId, cap: str) -> None:
        if not self.has_cap(f, cap):
            raise CapabilityError(f"functor {f} lacks the {cap} capability")

    # -- type-level operations -------------------------------------------

    def applicable(self, f: EffectId, ty: Ty) -> bool:
        fdef = self.functor(f)
        if fdef.applies_to is None:
            return True
        return ty in fdef.applies_to

    def well_formed(self, ty: Ty) -> None:
        """Raise unless every base name is declared and every effect
        application satisfies its functor's applicability predicate."""
        if isinstance(ty, Base):
            self.base_type(ty.name)
        elif isinstance(ty, Arrow):
            self.well_formed(ty.dom)
            self.well_formed(ty.cod)
        elif isinstance(ty, Prod):
            self.well_formed(ty.left)
            self.well_formed(ty.right)
        elif isinstance(ty, Eff):
            self.functor(ty.functor)
            self.well_formed(ty.inner)
            if not self.applicable(ty.functor, ty.inner):
                raise InapplicableFunctorError(
                    f"functor {ty.functor} does not apply to {ty.inner}")
        else:
            raise MalformedTypeError(f"not a type: {ty!r}")

    def is_pure(self, ty: Ty) -> bool:
        """True iff ``ty`` contains no effect constructor anywhere."""
        self.well_formed(ty)
        return deep_effect_count(ty) == 0

    def effect_stack(self, ty: Ty):
        """Peel the outermost effect applications.

        Returns ``(effects, core)`` with ``effects`` outermost-first; the
        input is reconstructible by refolding.
        """
        self.well_formed(ty)
        effects = []
        while isinstance(ty, Eff):
            effects.append(ty.functor)
            ty = ty.inner
        return tuple(effects), ty

    def refold(self, effects, core: Ty) -> Ty:
        ty = core
        for f in reversed(tuple(effects)):
            ty = Eff(f, ty)
        self.well_formed(ty)
        return ty

    def apply_functor(self, f: EffectId, ty: Ty) -> Ty:
        self.functor(f)
        self.well_formed(ty)
        if not self.applicable(f, ty):
            raise InapplicableFunctorError(f"functor {f} does not apply to {ty}")
        return Eff(f, ty)

    def subtype_leq(self, sub: Ty, sup: Ty) -> bool:
        """True iff ``sub`` arises from ``sup`` by prepending registered
        effect applications at the outermost position."""
        self.well_formed(sub)
        self.well_formed(sup)
        sub_effects, sub_core = self.effect_stack(sub)
        sup_effects, sup_core = self.effect_stack(sup)
        if sub_core != sup_core:
            return False
        n_extra = len(sub_effects) - len(sup_effects)
        if n_extra < 0 or sub_effects[n_extra:] != sup_effects:
            return False
        ty = sup
        for f in reversed(sub_effects[:n_extra]):
            if not self.applicable(f, ty):
                return False
            ty = Eff(f, ty)
        return True


def deep_effect_count(ty: Ty) -> int:
    """Number of effect constructors anywhere in the type."""
    if isinstance(ty, Base):
        return 0
    if isinstance(ty, Arrow):
        return deep_effect_count(ty.dom) + deep_effect_count(ty.cod)
    if isinstance(ty, Prod):
        return deep_effect_count(ty.left) + deep_effect_count(ty.right)
    if isinstance(ty, Eff):
        return 1 + deep_effect_count(ty.inner)
    raise MalformedTypeError(f"not a type: {ty!r}")


def positive_effects(ty: Ty) -> tuple:
    """Effects reachable without crossing into an argument position.

    This is the string word a constituent of this type contributes to an
    effect diagram: the outermost stack plus effects nested in codomains
    and product components, skipping arrow domains.
    """
    if isinstance(ty, Base):
        return ()
    if isinstance(ty, Arrow):
        return positive_effects(ty.cod)
    if isinstance(ty, Prod):
        return positive_effects(ty.left) + positive_effects(ty.right)
    if isinstance(ty, Eff):
        return (ty.functor,) + positive_effects(ty.inner)
    raise MalformedTypeError(f"not a type: {ty!r}")
