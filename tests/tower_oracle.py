"""The tower's mirrors that no report reads: test oracles.

The library stores a cutting-and-stacking tower as its integer slots
(``stacking.Tower.starts``).  The routes here build the same tower another
way, or read off it what no report writes, so tests compare two independent
routes:

- ``level_words`` reads each level's digit word off its slot;
- the skyscraper has base the product odometer on prod {1..a(n)} and height
  function h(x) = cocycle increment of the odometer under the slot labeling
  b(k at slot n) = (k-1) q(n-1); on the cylinder where the first n-1 digits
  are maximal and digit n is not, h = 1 + q(0) + ... + q(n-3).  The tower's
  accumulated spacers realize exactly these column heights, so the codes of
  ``skyscraper_orbit_codes`` are the tower's level words;
- ``limit_space_enclosure`` encloses L_infinity, the limit of the towers'
  ``total_space``, which is finite exactly when the partial quotients
  satisfy the summability condition; a declared growth rule certifies it.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from adicspace.errors import AdicspaceError, BadInput, InsufficientDepth
from adicspace.intervals import RatInterval
from adicspace.rotation import CFExpansion, GrowthRule, summability_report
from adicspace.stacking import Tower, _check_height

Word = Tuple[int, ...]


class TruncationBoundary(AdicspaceError):
    code = "TruncationBoundary"


def level_words(cf: CFExpansion, t: Tower) -> List[Optional[Word]]:
    """The depth-``stage`` digit word of each level's cylinder, None for a spacer.

    A slot below ``denominator`` is the word's digits minus one in the mixed
    radix a(1), ..., a(stage), most significant first; a slot at or above
    it is a spacer.
    """
    radix = [cf.a(n) for n in range(t.stage, 0, -1)]
    words: List[Optional[Word]] = []
    for slot in t.starts:
        if slot >= t.denominator:
            words.append(None)
            continue
        digits = []
        for a in radix:
            slot, digit = divmod(slot, a)
            digits.append(digit + 1)
        words.append(tuple(reversed(digits)))
    return words


def limit_space_enclosure(cf: CFExpansion, rule: GrowthRule) -> RatInterval:
    """Certified enclosure of L_infinity = lim q(n-1)/(a(1)...a(n-1)).

    Uses L_N <= L_inf and the subset-sum domination
    prod (1 + x_i) <= 1/(1 - sum x_i) for sum x_i < 1 on the tail factors
    x_m = 1/(a(m) a(m+1)).
    """
    report = summability_report(cf, rule)
    if report.verdict != "CONVERGENT_CERTIFIED":
        raise BadInput("limit space needs a certified growth rule")
    d = cf.depth
    prod = Fraction(1)
    for n in range(1, d):
        prod *= cf.a(n)
    l_lo = Fraction(cf.q(d - 1), prod)
    tail = rule.tail_bound(d - 1)
    if tail >= 1:
        raise InsufficientDepth("tail bound too large to enclose the limit space")
    return RatInterval(l_lo, l_lo / (1 - tail))


# -- the skyscraper over the product odometer ----------------------------------


@dataclass(frozen=True)
class SkyscraperPoint:
    word: Word   # digits x_n in {1..a(n)}, one per available partial quotient
    height: int  # 0 <= height < column_height(word)


def check_word(cf: CFExpansion, word: Word):
    if len(word) != cf.depth:
        raise BadInput(f"word length {len(word)} != cf depth {cf.depth}")
    for n, digit in enumerate(word, start=1):
        if not (1 <= digit <= cf.a(n)):
            raise BadInput(f"digit {digit} outside 1..{cf.a(n)} at slot {n}")


def odometer_step(cf: CFExpansion, word: Word) -> Word:
    """Add one with carry on prod {1..a(n)}; TruncationBoundary past the end."""
    check_word(cf, word)
    digits = list(word)
    for n in range(len(digits)):
        if digits[n] < cf.a(n + 1):
            digits[n] += 1
            return tuple(digits)
        digits[n] = 1
    raise TruncationBoundary("odometer increment past the all-maximal word")


def slot_label(cf: CFExpansion, slot: int, digit: int) -> int:
    """The integer label (digit - 1) q(slot - 1) of a digit value at a slot."""
    return (digit - 1) * cf.q(slot - 1)


def column_height(cf: CFExpansion, word: Word) -> int:
    """Cocycle increment of the odometer at this word.

    Equals 1 + q(0) + ... + q(m-3) where m is the first slot whose digit is
    below its maximum; the all-maximal word takes the m = depth value (its
    true height depends on digits beyond the truncation).
    """
    check_word(cf, word)
    m = len(word)
    for n, digit in enumerate(word, start=1):
        if digit < cf.a(n):
            m = n
            break
    return 1 + sum(cf.q(t) for t in range(m - 2))


def skyscraper_step(cf: CFExpansion, p: SkyscraperPoint) -> SkyscraperPoint:
    """Go up the column, or apply the odometer at the top."""
    h = column_height(cf, p.word)
    if not (0 <= p.height < h):
        raise BadInput(f"height {p.height} outside 0..{h - 1}")
    if p.height + 1 < h:
        return SkyscraperPoint(p.word, p.height + 1)
    return SkyscraperPoint(odometer_step(cf, p.word), 0)


def skyscraper_orbit_codes(cf: CFExpansion, stage: int) -> List[Optional[Word]]:
    """Codes of the full orbit from ((1,..,1), 0) through the stage-sized base.

    Words are truncated to ``stage`` digits; heights above ground code as
    None, mirroring the tower's spacer levels.
    """
    _check_height(cf, stage)
    sub = CFExpansion(cf.terms[:stage])
    codes: List[Optional[Word]] = []
    word: Optional[Word] = tuple([1] * stage)
    while word is not None:
        h = column_height(sub, word)
        codes.append(word)
        codes.extend([None] * (h - 1))
        try:
            word = odometer_step(sub, word)
        except TruncationBoundary:
            word = None
    return codes
