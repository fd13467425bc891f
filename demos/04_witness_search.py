"""Witness searches and the certificates they emit.

Three searches share one shape - scan candidates v in R until the image
set {sigma(v)} is monochromatic:

  * word semigroups with the diagonal substitutions x -> a (the smallest
    Hales-Jewett setting), a family that is valid by construction and
    carries its own word semigroup,
  * explicit finite semigroups given by Cayley table,
  * van der Waerden progressions obtained by projecting a word witness
    through the digit-sum reduction.

Every positive answer is rendered as a self-contained certificate that a
verifier re-checks by direct evaluation, and any byte flip is rejected.
"""
from hjlab import (
    ApResidueColoring,
    ModSumColoring,
    TableColoring,
    WordSemigroup,
    find_ap_via_words,
    finite_witness_search,
    finite_witness_certificate,
    flag_index,
    flag_semigroup,
    format_word,
    render_certificate,
    substitution_family,
    verify_certificate_text,
    word_witness_search,
    words_witness_certificate,
)

# -- variable words over {0, 1}, colored by letter sum mod 2 ---------------

ws = WordSemigroup(2)
family = substitution_family(ws)
coloring = ModSumColoring(2)
out = word_witness_search(family, coloring)
print(f"word witness: {format_word(out.witness)}  "
      f"images {[format_word(w) for w in out.images]}  "
      f"color {out.color}  ({out.checked} variable words scanned)")

cert = words_witness_certificate(ws, coloring, out)
text = render_certificate(cert)
ok, msg = verify_certificate_text(text)
print(f"certificate verifies: {ok} ({msg})")

# flip a single byte of the witness line and watch verification refuse it
bad = text.replace(f"witness: {format_word(out.witness)}",
                   "witness: x0", 1)
ok, msg = verify_certificate_text(bad)
print(f"tampered certificate verifies: {ok} ({msg})")

# -- a finite semigroup from its Cayley table ------------------------------

S, view, fam = flag_semigroup(2)
table = {str(flag_index(0, 0)): 0, str(flag_index(1, 0)): 1,
         str(flag_index(2, 0)): 0}
fin = finite_witness_search(fam, TableColoring(table, r=2))
print(f"\nfinite witness on flags m=2: {S.element_name(fin.witness)}  "
      f"images {{{', '.join(S.element_name(i) for i in fin.images)}}}  "
      f"color {fin.color}")
ok, msg = verify_certificate_text(
    render_certificate(finite_witness_certificate(S, fam, TableColoring(table, r=2), fin)))
print(f"certificate verifies: {ok} ({msg})")

# -- arithmetic progressions via the word reduction -------------------------

via = find_ap_via_words(3, ApResidueColoring(2), max_len=5)
a, b, c = via.progression
print(f"\n3-AP via words: word {format_word(via.word)} projects to "
      f"{a}, {b}, {c} (step {b - a}), color {via.color}, "
      f"{via.checked} words scanned")
