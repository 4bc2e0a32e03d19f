"""Deterministic name generation with controlled ambiguity.

Named entity disambiguation (tutorial section 4) lives or dies on surface-
form ambiguity: "Jobs" may be Steve Jobs or another Jobs; a person and a city
can share a name.  The pools below are sized so that, at realistic world
sizes, surnames collide and some location names double as surnames — exactly
the ambiguity profile the NED experiments need, but fully under our control.

Multilingual labels are produced by a deterministic pseudo-translation per
language (suffix and vowel transformations), which gives the multilingual
harvesting experiment (E8) a gold alignment for free.
"""

from __future__ import annotations

import random

GIVEN_NAMES = (
    "Alan", "Alice", "Amara", "Anders", "Anika", "Boris", "Carla", "Chen",
    "Clara", "Daniel", "Diego", "Elena", "Emil", "Farah", "Felix", "Grace",
    "Hana", "Henrik", "Ines", "Ivan", "Jonas", "Julia", "Kamal", "Karin",
    "Lars", "Leila", "Linus", "Mara", "Marco", "Mei", "Milan", "Nadia",
    "Nils", "Noor", "Olga", "Omar", "Paula", "Pavel", "Priya", "Rafael",
    "Rania", "Rasmus", "Rosa", "Sana", "Selma", "Simon", "Sofia", "Stefan",
    "Tara", "Tomas", "Vera", "Viktor", "Wei", "Yara", "Yusuf", "Zara",
)

SURNAMES = (
    "Adler", "Almeida", "Arnold", "Becker", "Bergman", "Castell", "Dorner",
    "Ferrara", "Fischer", "Garland", "Haber", "Hoffman", "Ibarra", "Jansen",
    "Keller", "Kovacs", "Lindgren", "Marek", "Mercer", "Navarro", "Okafor",
    "Orlov", "Petrov", "Quint", "Ramos", "Richter", "Salgado", "Santos",
    "Solberg", "Tanaka", "Ulrich", "Varga", "Weber", "Winter", "Zhou",
)

#: Surnames that are ALSO city-name stems — the person/place ambiguity pool.
AMBIGUOUS_STEMS = ("Aldren", "Bellmor", "Corvain", "Delmont", "Estrel", "Fenwick")

CITY_STEMS = (
    "Aldren", "Bellmor", "Corvain", "Delmont", "Estrel", "Fenwick", "Garview",
    "Halvora", "Istrana", "Jelgrad", "Kastola", "Lorvik", "Maretta", "Norfell",
    "Ostrova", "Pellika", "Quorra", "Ravenna", "Selkirk", "Tormund", "Umbria",
    "Valmera", "Wesloch", "Yorvale", "Zembla",
)

CITY_SUFFIXES = ("", " City", "burg", " Falls", "ford", "haven", "port", "stad")

COUNTRY_STEMS = (
    "Arvandia", "Belcara", "Cestoria", "Drovana", "Elbonia", "Frentis",
    "Galdova", "Hastein", "Ivrea", "Jotunia", "Kreland", "Lorvania",
)

COMPANY_STEMS = (
    "Acumen", "Boreal", "Cinder", "Dynacore", "Everline", "Fluxon", "Gantry",
    "Helio", "Ionware", "Junction", "Kinetic", "Lumen", "Meridian", "Nimbus",
    "Orbital", "Pinnacle", "Quantum", "Rubicon", "Stellar", "Tesseract",
    "Umbra", "Vertex", "Wavefront", "Zenith",
)

COMPANY_SUFFIXES = ("Systems", "Labs", "Industries", "Corp", "Technologies", "Group")

UNIVERSITY_PATTERNS = (
    "University of {city}",
    "{city} Institute of Technology",
    "{city} Polytechnic",
)

PRIZE_NAMES = (
    "Meridian Prize", "Aster Medal", "Corona Award", "Helix Prize",
    "Lattice Medal", "Orrery Award",
)

PRODUCT_FAMILIES = ("Nova", "Pulsar", "Vega", "Orion", "Lyra", "Quasar")

BOOK_PATTERNS = (
    "The {noun} of {place}", "A History of {place}", "{noun} and {noun2}",
    "The Last {noun}", "Beyond the {noun}",
)
BOOK_NOUNS = (
    "River", "Garden", "Mirror", "Tower", "Harbor", "Meridian", "Archive",
    "Cartographer", "Winter", "Lighthouse",
)

ALBUM_PATTERNS = ("{adj} {noun}", "{noun} {number}", "Songs of {place}")
ALBUM_ADJECTIVES = ("Electric", "Silent", "Golden", "Midnight", "Paper", "Neon")

#: Languages the multilingual experiments use, besides English.
LANGUAGES = ("de", "fr", "es")

_LANG_VOWELS = {
    "de": {"a": "a", "e": "e", "i": "ie", "o": "o", "u": "u"},
    "fr": {"a": "a", "e": "é", "i": "i", "o": "au", "u": "u"},
    "es": {"a": "a", "e": "e", "i": "í", "o": "o", "u": "u"},
}
_LANG_CONSONANTS = {
    "de": {"c": "k", "v": "w", "y": "j"},
    "fr": {"k": "qu", "w": "v"},
    "es": {"th": "t", "w": "v", "k": "c"},
}
_LANG_SUFFIX = {"de": "en", "fr": "e", "es": "o"}
#: Function words translate wholesale, as real interlanguage titles do
#: ("University of X" / "Universität X" / "Université de X").
_LANG_FUNCTION_WORDS = {
    "de": {"of": "von", "the": "der", "in": "in", "and": "und", "a": "ein"},
    "fr": {"of": "de", "the": "le", "in": "en", "and": "et", "a": "un"},
    "es": {"of": "de", "the": "el", "in": "en", "and": "y", "a": "un"},
}


#: Syllables used to build exonyms (historically divergent foreign names).
_EXONYM_SYLLABLES = (
    "ba", "dor", "el", "fin", "gar", "hul", "ka", "lor", "mun", "nev",
    "or", "pra", "ril", "sten", "tor", "ul", "ver", "wen", "zar",
)
#: Fraction control: one in EXONYM_MODULUS (name, lang) pairs is an exonym.
_EXONYM_MODULUS = 4


def is_exonym(name: str, lang: str) -> bool:
    """True if this (name, language) pair uses a divergent exonym."""
    import hashlib

    digest = hashlib.blake2b(f"{name}|{lang}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") % _EXONYM_MODULUS == 0


def _exonym(name: str, lang: str) -> str:
    """A deterministic, string-dissimilar foreign name ("Deutschland")."""
    import hashlib

    digest = hashlib.blake2b(f"{name}|{lang}|x".encode(), digest_size=8).digest()
    syllables = []
    for i in range(3):
        syllables.append(_EXONYM_SYLLABLES[digest[i] % len(_EXONYM_SYLLABLES)])
    word = "".join(syllables).capitalize() + _LANG_SUFFIX[lang]
    return word


def pseudo_translate(name: str, lang: str) -> str:
    """A deterministic pseudo-translation of a name into ``lang``.

    Real interlanguage links connect spellings like "Munich"/"München"/
    "Múnich" and restructure multiword titles ("University of X" /
    "Université de X").  This transformation mimics both: function words
    translate wholesale; content words mutate vowels/consonants and gain a
    language-typical suffix.  A deterministic quarter of (name, language)
    pairs get an *exonym* — a historically divergent name with no string
    resemblance ("Germany"/"Deutschland") — which transliteration matching
    (E8) can never recover; only interlanguage links can.
    """
    if lang == "en":
        return name
    if lang not in _LANG_SUFFIX:
        raise ValueError(f"unsupported language: {lang!r}")
    if is_exonym(name, lang):
        return _exonym(name, lang)
    function_words = _LANG_FUNCTION_WORDS[lang]
    words = name.split(" ")
    translated_words = []
    for word in words:
        lower = word.lower()
        if lower in function_words:
            replacement = function_words[lower]
            translated_words.append(
                replacement.capitalize() if word[0].isupper() else replacement
            )
            continue
        translated_words.append(_translate_content_word(word, lang))
    return " ".join(translated_words)


def _translate_content_word(word: str, lang: str) -> str:
    if not word or not word[0].isalpha():
        return word
    vowels = _LANG_VOWELS[lang]
    consonants = _LANG_CONSONANTS[lang]
    out = []
    i = 0
    while i < len(word):
        ch = word[i]
        lower = ch.lower()
        pair = word[i:i + 2].lower()
        if pair in consonants:
            replacement = consonants[pair]
            out.append(replacement.capitalize() if ch.isupper() else replacement)
            i += 2
            continue
        if lower in consonants:
            replacement = consonants[lower]
            out.append(replacement.capitalize() if ch.isupper() else replacement)
            i += 1
            continue
        # Interior vowels mutate; edges stay, keeping the name recognizable.
        if 0 < i < len(word) - 1 and lower in vowels:
            replacement = vowels[lower]
            out.append(replacement.upper() if ch.isupper() else replacement)
            i += 1
            continue
        out.append(ch)
        i += 1
    result = "".join(out)
    if (
        result[-1:].isalpha()
        and len(result) > 3
        and not result.endswith(_LANG_SUFFIX[lang])
    ):
        result += _LANG_SUFFIX[lang]
    return result


class NamePool:
    """Draws entity names deterministically from the pools above.

    ``ambiguity`` in [0, 1] controls how aggressively surnames are reused:
    at 0 the pool cycles through all surnames before repeating; at 1 it draws
    from only a handful of surnames so collisions are everywhere.
    """

    def __init__(self, seed: int, ambiguity: float = 0.3) -> None:
        if not 0.0 <= ambiguity <= 1.0:
            raise ValueError("ambiguity must be in [0, 1]")
        self._rng = random.Random(seed)
        self.ambiguity = ambiguity
        surname_count = max(4, int(len(SURNAMES) * (1.0 - 0.85 * ambiguity)))
        self._surnames = list(SURNAMES[:surname_count]) + list(AMBIGUOUS_STEMS)
        self._used_person_names: set[str] = set()
        self._used: set[str] = set()

    def _unique(self, candidates_factory, used: set[str]) -> str:
        for __ in range(10_000):
            candidate = candidates_factory()
            if candidate not in used:
                used.add(candidate)
                return candidate
        raise RuntimeError("name pool exhausted; enlarge the pools")

    def person_name(self) -> tuple[str, str]:
        """A unique (given, surname) pair; surnames intentionally collide."""
        def make() -> str:
            given = self._rng.choice(GIVEN_NAMES)
            surname = self._rng.choice(self._surnames)
            return f"{given} {surname}"

        full = self._unique(make, self._used_person_names)
        given, __, surname = full.partition(" ")
        return given, surname

    def city_name(self) -> str:
        """A unique city name; some reuse person-surname stems on purpose."""
        def make() -> str:
            stem = self._rng.choice(CITY_STEMS)
            suffix = self._rng.choice(CITY_SUFFIXES)
            return f"{stem}{suffix}"

        return self._unique(make, self._used)

    def country_name(self) -> str:
        """A unique country name."""
        return self._unique(lambda: self._rng.choice(COUNTRY_STEMS), self._used)

    def company_name(self) -> str:
        """A unique company name like "Nimbus Systems"."""
        def make() -> str:
            stem = self._rng.choice(COMPANY_STEMS)
            suffix = self._rng.choice(COMPANY_SUFFIXES)
            return f"{stem} {suffix}"

        return self._unique(make, self._used)

    def university_name(self, city: str) -> str:
        """A unique university name anchored to a city."""
        def make() -> str:
            pattern = self._rng.choice(UNIVERSITY_PATTERNS)
            return pattern.format(city=city)

        return self._unique(make, self._used)

    def has_university_name(self, city: str) -> bool:
        """Whether some university pattern for ``city`` is still unused."""
        return any(
            pattern.format(city=city) not in self._used
            for pattern in UNIVERSITY_PATTERNS
        )

    def prize_name(self) -> str:
        """A unique prize name."""
        return self._unique(lambda: self._rng.choice(PRIZE_NAMES), self._used)

    def book_title(self, place: str) -> str:
        """A unique book title."""
        def make() -> str:
            pattern = self._rng.choice(BOOK_PATTERNS)
            return pattern.format(
                noun=self._rng.choice(BOOK_NOUNS),
                noun2=self._rng.choice(BOOK_NOUNS),
                place=place,
            )

        return self._unique(make, self._used)

    def album_title(self, place: str) -> str:
        """A unique album title."""
        def make() -> str:
            pattern = self._rng.choice(ALBUM_PATTERNS)
            return pattern.format(
                adj=self._rng.choice(ALBUM_ADJECTIVES),
                noun=self._rng.choice(BOOK_NOUNS),
                number=self._rng.randint(1, 9),
                place=place,
            )

        return self._unique(make, self._used)


def nationality_adjective(country: str) -> str:
    """A demonym-like adjective for a country name ("Arvandia" -> "Arvandian")."""
    if country.endswith("ia") or country.endswith("a"):
        return country + "n"
    if country.endswith("is"):
        return country[:-2] + "ian"
    return country + "ese"


def person_aliases(given: str, surname: str) -> list[str]:
    """Surface forms a text may use for a person, most specific first."""
    return [
        f"{given} {surname}",
        f"{given[0]}. {surname}",
        surname,
        given,
    ]


def identifier_from_name(name: str) -> str:
    """Turn a display name into an identifier-safe local name."""
    cleaned = []
    for ch in name:
        if ch.isalnum():
            cleaned.append(ch)
        elif ch in " -'.":
            cleaned.append("_")
    collapsed = "".join(cleaned)
    while "__" in collapsed:
        collapsed = collapsed.replace("__", "_")
    return collapsed.strip("_")
