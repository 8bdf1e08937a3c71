"""The 24 unique patterns of the knowledge base.

Every pattern mirrors the style of the paper's Figures 4-6: typed nodes
with exact (``r``) and approximate (``r̂``) incomplete Java expressions,
node-level feedback templates (instantiated with the student's variable
names via γ), ``Ctrl``/``Data`` edges, and pattern-level present/missing
messages.  Variable names are globally distinct across patterns so that
containment constraints can union γ mappings safely (Definition 10).

Patterns are deliberately generic — ``cond-cumulative-add`` recognizes
``odd += a[i]`` in Assignment 1 just as well as ``medals += 1`` in the
RIT olympics assignments — which is what gives the knowledge base its
reusability (24 unique patterns serve 81 pattern uses across the twelve
assignments, exactly Table I's ``P`` column).
"""

from __future__ import annotations

import re

from repro.errors import KnowledgeBaseError
from repro.patterns.model import Pattern, PatternNode
from repro.patterns.template import BOUNDARY_AFTER, BOUNDARY_BEFORE, ExprTemplate
from repro.pdg.graph import EdgeType, GraphEdge, NodeType

_CTRL = EdgeType.CTRL
_DATA = EdgeType.DATA


def _template(source: str, *variables: str) -> ExprTemplate:
    return ExprTemplate(source, frozenset(variables))


def _node(
    node_id: int,
    node_type: NodeType,
    expr: str,
    variables: tuple[str, ...] = (),
    approx: str | None = None,
    approx_variables: tuple[str, ...] | None = None,
    ok: str = "",
    bad: str = "",
) -> PatternNode:
    approx_template = None
    if approx is not None:
        if approx_variables is None:
            # keep only the declared variables that the approximate
            # expression actually mentions (r̂'s variables ⊆ r's, Def. 4)
            approx_variables = tuple(
                v for v in variables
                if re.search(BOUNDARY_BEFORE + re.escape(v) + BOUNDARY_AFTER, approx)
            )
        approx_template = _template(approx, *approx_variables)
    return PatternNode(
        node_id=node_id,
        type=node_type,
        expr=_template(expr, *variables),
        approx=approx_template,
        feedback_correct=ok,
        feedback_incorrect=bad,
    )


def _build_library() -> dict[str, Pattern]:
    untyped, assign, cond, call = (
        NodeType.UNTYPED, NodeType.ASSIGN, NodeType.COND, NodeType.CALL
    )
    library: list[Pattern] = []

    # 1 ------------------------------------------------------------------
    library.append(Pattern(
        name="seq-odd-access",
        description="accessing odd positions sequentially in an array",
        nodes=[
            _node(0, untyped, r"s", ("s",),
                  ok="{s} is the array being traversed"),
            _node(1, untyped, r"x = 0", ("x",), approx=r"x =",
                  ok="{x} is initialized to 0",
                  bad="{x} should be initialized to 0"),
            _node(2, assign, r"x\+\+|x \+= 1|x = x \+ 1", ("x",),
                  approx=r"x =|x--|x -= 1|x \+= \d+",
                  ok="{x} is incremented by 1",
                  bad="{x} should be incremented by 1"),
            _node(3, cond, r"x < s\.length", ("x", "s"),
                  approx=r"x <= s\.length|x < s\.length - 1|x <= s\.length - 1|x < s\.length \+ 1",
                  ok="{x} does not go beyond {s}.length - 1",
                  bad="{x} is out of bounds going beyond {s}.length - 1"),
            _node(4, cond, r"x % 2 == 1|x % 2 != 0", ("x",),
                  ok="you are using {x} % 2 == 1 to control that {x} is odd"),
            _node(5, untyped, r"s\[x\]", ("s", "x"), approx=r"s\[",
                  ok="{x} is used exactly to access {s}",
                  bad="you should access {s} by using {x} exactly"),
        ],
        edges=[
            GraphEdge(0, 3, _DATA), GraphEdge(0, 5, _DATA),
            GraphEdge(1, 2, _DATA), GraphEdge(1, 3, _DATA),
            GraphEdge(3, 2, _CTRL), GraphEdge(3, 4, _CTRL),
            GraphEdge(4, 5, _CTRL),
        ],
        feedback_present="You are correctly accessing odd positions "
                         "sequentially in the array {s}.",
        feedback_missing="You are not accessing odd positions sequentially "
                         "in an array; please consider using a loop and a "
                         "condition; recall that odd is computed by "
                         "i % 2 == 1, where i is an index variable.",
    ))

    # 2 ------------------------------------------------------------------
    library.append(Pattern(
        name="seq-even-access",
        description="accessing even positions sequentially in an array",
        nodes=[
            _node(0, untyped, r"t", ("t",),
                  ok="{t} is the array being traversed"),
            _node(1, untyped, r"w = 0", ("w",), approx=r"w =",
                  ok="{w} is initialized to 0",
                  bad="{w} should be initialized to 0"),
            _node(2, assign, r"w\+\+|w \+= 1|w = w \+ 1", ("w",),
                  approx=r"w =|w--|w -= 1|w \+= \d+",
                  ok="{w} is incremented by 1",
                  bad="{w} should be incremented by 1"),
            _node(3, cond, r"w < t\.length", ("w", "t"),
                  approx=r"w <= t\.length|w < t\.length - 1|w <= t\.length - 1|w < t\.length \+ 1",
                  ok="{w} does not go beyond {t}.length - 1",
                  bad="{w} is out of bounds going beyond {t}.length - 1"),
            _node(4, cond, r"w % 2 == 0|w % 2 != 1", ("w",),
                  ok="you are using {w} % 2 == 0 to control that {w} is even"),
            _node(5, untyped, r"t\[w\]", ("t", "w"), approx=r"t\[",
                  ok="{w} is used exactly to access {t}",
                  bad="you should access {t} by using {w} exactly"),
        ],
        edges=[
            GraphEdge(0, 3, _DATA), GraphEdge(0, 5, _DATA),
            GraphEdge(1, 2, _DATA), GraphEdge(1, 3, _DATA),
            GraphEdge(3, 2, _CTRL), GraphEdge(3, 4, _CTRL),
            GraphEdge(4, 5, _CTRL),
        ],
        feedback_present="You are correctly accessing even positions "
                         "sequentially in the array {t}.",
        feedback_missing="You are not accessing even positions sequentially "
                         "in an array; recall that even positions satisfy "
                         "i % 2 == 0, where i is an index variable.",
    ))

    # 3 ------------------------------------------------------------------
    library.append(Pattern(
        name="cond-cumulative-add",
        description="conditionally accumulating a sum",
        nodes=[
            _node(0, untyped, r"c = 0", ("c",), approx=r"c =",
                  ok="the sum {c} starts at 0",
                  bad="the sum {c} should start at 0"),
            _node(1, cond, r""),
            _node(2, cond, r""),
            _node(3, assign, r"c \+=|c = c \+", ("c",),
                  approx=r"c =(?! c \*)",
                  ok="{c} is cumulatively added under the condition",
                  bad="{c} should be cumulatively added (use {c} += ...)"),
        ],
        edges=[
            GraphEdge(0, 3, _DATA), GraphEdge(1, 2, _CTRL),
            GraphEdge(2, 3, _CTRL),
        ],
        feedback_present="You are correctly accumulating a sum in {c} "
                         "under a condition.",
        feedback_missing="We expected a variable that accumulates a sum "
                         "(x += ...) inside a loop under a condition, "
                         "initialized to 0.",
    ))

    # 4 ------------------------------------------------------------------
    library.append(Pattern(
        name="cond-cumulative-mul",
        description="conditionally accumulating a product",
        nodes=[
            _node(0, untyped, r"d = 1", ("d",), approx=r"d =",
                  ok="the product {d} starts at 1",
                  bad="the product {d} should start at 1 (not 0: "
                      "multiplying by 0 stays 0)"),
            _node(1, cond, r""),
            _node(2, cond, r""),
            _node(3, assign, r"d \*=|d = d \*", ("d",),
                  approx=r"d =(?! d \+)",
                  ok="{d} is cumulatively multiplied under the condition",
                  bad="{d} should be cumulatively multiplied "
                      "(use {d} *= ...)"),
        ],
        edges=[
            GraphEdge(0, 3, _DATA), GraphEdge(1, 2, _CTRL),
            GraphEdge(2, 3, _CTRL),
        ],
        feedback_present="You are correctly accumulating a product in {d} "
                         "under a condition.",
        feedback_missing="We expected a variable that accumulates a product "
                         "(x *= ...) inside a loop under a condition, "
                         "initialized to 1.",
    ))

    # 5 ------------------------------------------------------------------
    library.append(Pattern(
        name="assign-print",
        description="assigning a variable and printing it to console",
        nodes=[
            _node(0, untyped, r"z", ("z",),
                  ok="{z} receives the value you print"),
            _node(1, call, r"System\.out\.print.*z", ("z",),
                  ok="{z} is printed to console"),
        ],
        edges=[GraphEdge(0, 1, _DATA)],
        feedback_present="You correctly print the computed value of {z} "
                         "to console.",
        feedback_missing="We expected you to print a computed variable to "
                         "console with System.out.print/println.",
        # several definitions may reach one print (if/else merges); an
        # occurrence is one (print statement, printed variable) pair
        count_nodes=(1,),
    ))

    # 6 ------------------------------------------------------------------
    library.append(Pattern(
        name="print-call",
        description="printing to console",
        nodes=[
            _node(0, call, r"System\.out\.print",
                  ok="output is printed to console"),
        ],
        edges=[],
        feedback_present="You print your results to console.",
        feedback_missing="The assignment asks you to print your results to "
                         "console with System.out.print/println.",
    ))

    # 7 ------------------------------------------------------------------
    library.append(Pattern(
        name="seq-array-traversal",
        description="traversing an array sequentially",
        nodes=[
            _node(0, untyped, r"arr", ("arr",),
                  ok="{arr} is the array being traversed"),
            _node(1, untyped, r"k = 0|k = 1", ("k",), approx=r"k =",
                  ok="the index {k} starts at the right position",
                  bad="check the starting value of the index {k}"),
            _node(2, cond, r"k < arr\.length", ("k", "arr"),
                  approx=r"k <= arr\.length|k < arr\.length - 1|k <= arr\.length - 1",
                  ok="{k} stays within the bounds of {arr}",
                  bad="{k} must stay in the range 0 to {arr}.length - 1"),
            _node(3, assign, r"k\+\+|k \+= 1|k = k \+ 1", ("k",),
                  approx=r"k =|k--|k -= 1|k \+= \d+",
                  ok="{k} advances one position per iteration",
                  bad="{k} should advance exactly one position per "
                      "iteration"),
        ],
        edges=[
            GraphEdge(0, 2, _DATA), GraphEdge(1, 2, _DATA),
            GraphEdge(1, 3, _DATA), GraphEdge(2, 3, _CTRL),
        ],
        feedback_present="You traverse the array {arr} sequentially with "
                         "the index {k}.",
        feedback_missing="We expected a loop traversing the input array "
                         "one position at a time.",
    ))

    # 8 ------------------------------------------------------------------
    library.append(Pattern(
        name="range-loop",
        description="looping over a closed integer range",
        nodes=[
            _node(0, untyped, r"i0 = 1|i0 = 0", ("i0",), approx=r"i0 =",
                  ok="the loop variable {i0} starts correctly",
                  bad="check the starting value of {i0}"),
            _node(1, cond, r"i0 <= hi|i0 < hi", ("i0", "hi"),
                  approx=r"i0 >= hi|i0 > hi|i0 == hi|i0 != hi",
                  ok="the loop runs while {i0} is within the range bound "
                     "{hi}",
                  bad="the loop condition over {i0} and {hi} is inverted "
                      "or wrong"),
            _node(2, assign, r"i0\+\+|i0 \+= 1|i0 = i0 \+ 1", ("i0",),
                  approx=r"i0 =|i0--|i0 -= 1|i0 \+= \d+",
                  ok="{i0} is incremented by 1",
                  bad="{i0} should be incremented by 1"),
        ],
        edges=[
            GraphEdge(0, 1, _DATA), GraphEdge(0, 2, _DATA),
            GraphEdge(1, 2, _CTRL),
        ],
        feedback_present="You loop over the range with {i0} up to {hi}.",
        feedback_missing="We expected a counting loop over the range "
                         "(for/while with an upper bound).",
    ))

    # 9 ------------------------------------------------------------------
    library.append(Pattern(
        name="factorial-loop",
        description="computing a factorial iteratively",
        nodes=[
            _node(0, untyped, r"f = 1", ("f",), approx=r"f =",
                  ok="the factorial accumulator {f} starts at 1",
                  bad="the factorial accumulator {f} must start at 1 "
                      "(0 would make every product 0)"),
            _node(1, cond, r""),
            _node(2, assign, r"f \*=|f = f \*", ("f",), approx=r"f =",
                  ok="{f} is multiplied by the running value",
                  bad="{f} should be multiplied ({f} *= ...), not "
                      "reassigned"),
        ],
        edges=[GraphEdge(0, 2, _DATA), GraphEdge(1, 2, _CTRL)],
        feedback_present="You compute the factorial by accumulating the "
                         "product in {f}.",
        feedback_missing="We expected an iterative factorial: a product "
                         "accumulator initialized to 1 and multiplied "
                         "inside a loop.",
    ))

    # 10 -----------------------------------------------------------------
    library.append(Pattern(
        name="fibonacci-update",
        description="computing the Fibonacci sequence iteratively",
        nodes=[
            _node(0, untyped, r"p1 = 1|p1 = 0", ("p1",), approx=r"p1 =",
                  ok="the first Fibonacci seed {p1} is initialized",
                  bad="the Fibonacci sequence starts at 1, 1; check the "
                      "initialization of {p1}"),
            _node(1, untyped, r"p2 = 1", ("p2",), approx=r"p2 =",
                  ok="the second Fibonacci seed {p2} is initialized to 1",
                  bad="the Fibonacci sequence starts at 1, 1; check the "
                      "initialization of {p2}"),
            _node(2, cond, r""),
            _node(3, untyped, r"p1 \+ p2|p2 \+ p1", ("p1", "p2"),
                  approx=r"p1 \+|p2 \+|\+ p1|\+ p2",
                  ok="each Fibonacci number is the sum of {p1} and {p2}",
                  bad="each Fibonacci number must be the sum of the two "
                      "previous ones ({p1} + {p2})"),
        ],
        edges=[
            GraphEdge(0, 3, _DATA), GraphEdge(1, 3, _DATA),
            GraphEdge(2, 3, _CTRL),
        ],
        feedback_present="You compute Fibonacci numbers by adding {p1} "
                         "and {p2} inside a loop.",
        feedback_missing="We expected the iterative Fibonacci update: two "
                         "seeds and their sum inside a loop.",
    ))

    # 11 -----------------------------------------------------------------
    library.append(Pattern(
        name="accumulator-bound-loop",
        description="looping while an accumulated quantity stays within "
                    "an input bound",
        nodes=[
            _node(0, untyped, r"k0", ("k0",),
                  ok="{k0} is the input bound"),
            _node(1, cond,
                  r"acc <= k0|acc\) <= k0",
                  ("acc", "k0"),
                  approx=r"acc - 1\) <= k0|acc \+ 1\) <= k0|acc < k0"
                         r"|acc\) < k0",
                  ok="the loop keeps going while {acc} stays within {k0}",
                  bad="the loop bound over {acc} and {k0} is off; the "
                      "assignment asks for the largest value whose "
                      "accumulated quantity does not exceed {k0}"),
        ],
        edges=[GraphEdge(0, 1, _DATA)],
        feedback_present="You correctly bound the search loop by comparing "
                         "against {k0}.",
        feedback_missing="We expected a loop guarded by comparing the "
                         "accumulated quantity against the input bound.",
    ))

    # 12 -----------------------------------------------------------------
    library.append(Pattern(
        name="counter-under-cond",
        description="incrementing a counter under a condition",
        nodes=[
            _node(0, untyped, r"cnt = 0|cnt = 1", ("cnt",), approx=r"cnt =",
                  ok="the counter {cnt} starts correctly",
                  bad="check the starting value of the counter {cnt}"),
            _node(1, cond, r""),
            _node(2, assign, r"cnt\+\+|cnt \+= 1|cnt = cnt \+ 1", ("cnt",),
                  approx=r"cnt--|cnt -= 1|cnt \+= \d+|cnt = cnt - ",
                  ok="{cnt} is incremented by exactly 1",
                  bad="{cnt} should be incremented by exactly 1"),
        ],
        edges=[GraphEdge(0, 2, _DATA), GraphEdge(1, 2, _CTRL)],
        feedback_present="You count with {cnt} under the right condition.",
        feedback_missing="We expected a counter incremented inside the "
                         "loop.",
    ))

    # 13 -----------------------------------------------------------------
    library.append(Pattern(
        name="digit-extract",
        description="extracting the last decimal digit with % 10",
        nodes=[
            _node(0, untyped, r"n0", ("n0",),
                  ok="{n0} is the number whose digits you process"),
            _node(1, untyped, r"n0 % 10(?!\d)", ("n0",),
                  approx=r"n0 % \d+|n0 %",
                  ok="the last digit of {n0} is extracted with {n0} % 10",
                  bad="use {n0} % 10 to extract the last decimal digit"),
        ],
        edges=[GraphEdge(0, 1, _DATA)],
        feedback_present="You extract digits of {n0} with the modulo "
                         "operator.",
        feedback_missing="We expected the last digit to be extracted with "
                         "% 10.",
    ))

    # 14 -----------------------------------------------------------------
    library.append(Pattern(
        name="shrink-by-ten",
        description="dropping the last digit with integer division by 10",
        nodes=[
            _node(0, untyped, r"n1", ("n1",),
                  ok="{n1} is the number being consumed"),
            _node(1, cond, r"n1 != 0|n1 > 0", ("n1",),
                  approx=r"n1 >= 0|n1 < 0|n1 == 0|n1",
                  ok="the loop runs while {n1} still has digits",
                  bad="loop while {n1} != 0 (or {n1} > 0), otherwise you "
                      "process too many or too few digits"),
            _node(2, assign, r"n1 /= 10(?!\d)|n1 = n1 / 10(?!\d)", ("n1",),
                  approx=r"n1 /|n1 =",
                  ok="{n1} drops its last digit with /= 10",
                  bad="use integer division by 10 to drop the last digit "
                      "of {n1}"),
        ],
        edges=[
            GraphEdge(0, 1, _DATA), GraphEdge(0, 2, _DATA),
            GraphEdge(1, 2, _CTRL),
        ],
        feedback_present="You consume the digits of {n1} with a division "
                         "loop.",
        feedback_missing="We expected a loop dividing the number by 10 "
                         "until it reaches 0.",
    ))

    # 15 -----------------------------------------------------------------
    library.append(Pattern(
        name="reverse-build",
        description="building the decimal reverse of a number",
        nodes=[
            _node(0, untyped, r"rv = 0", ("rv",), approx=r"rv =",
                  ok="the reverse {rv} starts at 0",
                  bad="the reverse {rv} should start at 0"),
            _node(1, cond, r""),
            _node(2, assign, r"rv = rv \* 10 \+|rv = 10 \* rv \+", ("rv",),
                  approx=r"rv = rv \*|rv = rv \+|rv \+=",
                  ok="{rv} shifts left one digit and appends the new digit",
                  bad="build the reverse with {rv} = {rv} * 10 + digit"),
        ],
        edges=[GraphEdge(0, 2, _DATA), GraphEdge(1, 2, _CTRL)],
        feedback_present="You build the reverse in {rv} digit by digit.",
        feedback_missing="We expected the reverse to be built with "
                         "r = r * 10 + digit inside the digit loop.",
    ))

    # 16 -----------------------------------------------------------------
    library.append(Pattern(
        name="cube-sum",
        description="summing the cubes of digits",
        nodes=[
            _node(0, untyped, r"cs = 0", ("cs",), approx=r"cs =",
                  ok="the cube sum {cs} starts at 0",
                  bad="the cube sum {cs} should start at 0"),
            _node(1, cond, r""),
            _node(2, assign,
                  r"cs \+= dg \* dg \* dg|cs = cs \+ dg \* dg \* dg"
                  r"|cs \+= \(int\) Math\.pow\(dg, 3\)",
                  ("cs", "dg"),
                  approx=r"cs \+= dg \* dg|cs \+= dg|cs =",
                  ok="{cs} accumulates the cube of each digit {dg}",
                  bad="{cs} must accumulate the cube ({dg} * {dg} * {dg}) "
                      "of each digit"),
        ],
        edges=[GraphEdge(0, 2, _DATA), GraphEdge(1, 2, _CTRL)],
        feedback_present="You sum the cubes of the digits into {cs}.",
        feedback_missing="We expected the sum of the cubes of the digits "
                         "to be accumulated inside the digit loop.",
    ))

    # 17 -----------------------------------------------------------------
    library.append(Pattern(
        name="equality-check",
        description="comparing two values for equality",
        nodes=[
            _node(0, cond, r"e1 == e2|e1\.equals\(e2\)", ("e1", "e2"),
                  approx=r"e1 != e2|e1 == |e1\.equals",
                  ok="you compare {e1} against {e2}",
                  bad="the comparison between {e1} and {e2} is not an "
                      "equality test"),
        ],
        edges=[],
        feedback_present="You test the equality of {e1} and {e2}.",
        feedback_missing="We expected an equality comparison between two "
                         "values.",
    ))

    # 18 -----------------------------------------------------------------
    library.append(Pattern(
        name="difference",
        description="computing the difference of two values",
        nodes=[
            _node(0, untyped, r"v1", ("v1",),
                  ok="{v1} is the first operand"),
            _node(1, untyped, r"v2", ("v2",),
                  ok="{v2} is the second operand"),
            _node(2, untyped,
                  r"v1 - v2|v2 - v1|Math\.abs\(v1 - v2\)|Math\.abs\(v2 - v1\)",
                  ("v1", "v2"),
                  approx=r"v1 -|v2 -|- v1|- v2|v1 \+ v2",
                  ok="you compute the difference of {v1} and {v2}",
                  bad="you should subtract {v2} from {v1} (or the other "
                      "way around)"),
        ],
        edges=[GraphEdge(0, 2, _DATA), GraphEdge(1, 2, _DATA)],
        feedback_present="You compute the difference between {v1} and "
                         "{v2}.",
        feedback_missing="We expected the difference of the two computed "
                         "values.",
    ))

    # 19 -----------------------------------------------------------------
    library.append(Pattern(
        name="array-write-scaled",
        description="writing a scaled array element (derivative rule)",
        nodes=[
            _node(0, cond, r""),
            _node(1, assign,
                  r"dv\[.+\] = .*cf\[.+\] \*|dv\[.+\] = .*\* cf\[",
                  ("cf", "dv"),
                  approx=r"dv\[.+\] = .*cf\[|dv\[.+\] =",
                  ok="{dv} receives each coefficient of {cf} scaled by its "
                     "exponent",
                  bad="each derivative coefficient must be the input "
                      "coefficient multiplied by its exponent "
                      "({dv}[i - 1] = {cf}[i] * i)"),
        ],
        edges=[GraphEdge(0, 1, _CTRL)],
        feedback_present="You apply the power rule into {dv}.",
        feedback_missing="We expected the power rule: every coefficient "
                         "multiplied by its exponent, shifted one position "
                         "down.",
    ))

    # 20 -----------------------------------------------------------------
    library.append(Pattern(
        name="poly-eval-term",
        description="accumulating polynomial terms at a point",
        nodes=[
            _node(0, untyped, r"pr = 0", ("pr",), approx=r"pr =",
                  ok="the result {pr} starts at 0",
                  bad="the result {pr} should start at 0"),
            _node(1, cond, r""),
            _node(2, assign,
                  r"pr \+= .*Math\.pow\(x0,|pr = pr \+ .*Math\.pow\(x0,"
                  r"|pr = pr \* x0 \+",
                  ("pr", "x0"),
                  approx=r"pr \+=|pr =",
                  ok="{pr} accumulates each term evaluated at {x0}",
                  bad="{pr} must accumulate coefficient * {x0}^i for every "
                      "term (or use Horner's rule)"),
        ],
        edges=[
            GraphEdge(0, 2, _DATA), GraphEdge(1, 2, _CTRL),
        ],
        feedback_present="You evaluate the polynomial at {x0} by summing "
                         "terms into {pr}.",
        feedback_missing="We expected the polynomial value to be "
                         "accumulated term by term at the given point.",
    ))

    # 21 -----------------------------------------------------------------
    library.append(Pattern(
        name="scanner-loop",
        description="scanning a file while tokens remain",
        nodes=[
            _node(0, assign, r"sc = new Scanner\(", ("sc",),
                  approx=r"sc = new",
                  ok="the scanner {sc} opens the input file",
                  bad="{sc} should be created as new Scanner(new "
                      "File(...))"),
            _node(1, cond, r"sc\.hasNext", ("sc",),
                  approx=r"sc\.hasNextInt|sc\.hasNextLine",
                  ok="the loop runs while {sc} has tokens left",
                  bad="loop with {sc}.hasNext() so every record is read"),
        ],
        edges=[GraphEdge(0, 1, _DATA)],
        feedback_present="You scan the file with {sc} until no tokens "
                         "remain.",
        feedback_missing="We expected a Scanner over the input file driven "
                         "by a hasNext() loop.",
    ))

    # 22 -----------------------------------------------------------------
    record_nodes = []
    record_edges = []
    _POSITIONS = (
        (1, r"\.next\(\)", "the athlete's first name"),
        (2, r"\.next\(\)", "the athlete's last name"),
        (3, r"\.nextInt\(\)", "the medal type"),
        (4, r"\.nextInt\(\)", "the event year"),
        (0, r"\.next\(\)", "the record separator"),
    )
    for slot, (remainder, read_expr, what) in enumerate(_POSITIONS):
        cond_id, read_id = 2 * slot, 2 * slot + 1
        record_nodes.append(_node(
            cond_id, NodeType.COND,
            rf"ri % 5 == {remainder}", ("ri",),
            approx=r"ri % \d+ ==|ri %",
            ok=f"field {remainder if remainder else 5} of each record "
               f"({what}) is selected with {{ri}} % 5 == {remainder}",
            bad=f"{what} lives at position {remainder if remainder else 5} "
                f"of each record; select it with {{ri}} % 5 == {remainder}",
        ))
        record_nodes.append(_node(
            read_id, NodeType.UNTYPED, read_expr,
            ok=f"{what} is read from the file",
            bad=f"{what} must be read with "
                f"{'nextInt()' if 'Int' in read_expr else 'next()'}",
        ))
        record_edges.append(GraphEdge(cond_id, read_id, _CTRL))
    library.append(Pattern(
        name="record-position-read",
        description="reading the five fields of each file record by "
                    "position",
        nodes=record_nodes,
        edges=record_edges,
        feedback_present="You read all five fields of each record at "
                         "their correct positions.",
        feedback_missing="Each record has five fields (first name, last "
                         "name, medal type, year, separator); read each "
                         "one under its own index % 5 condition.",
    ))

    # 23 -----------------------------------------------------------------
    library.append(Pattern(
        name="record-index-advance",
        description="advancing the record-field index once per token",
        nodes=[
            _node(0, untyped, r"rj = 1|rj = 0", ("rj",), approx=r"rj =",
                  ok="the field index {rj} starts correctly",
                  bad="check the starting value of the field index {rj}"),
            _node(1, cond, r"rj2\.hasNext", ("rj2",), approx=None,
                  ok="the index advances inside the token loop",
                  bad="advance the field index inside the hasNext() "
                      "loop"),
            _node(2, assign, r"rj\+\+|rj \+= 1|rj = rj \+ 1", ("rj",),
                  approx=r"rj--|rj -= 1|rj \+= \d+|rj = rj \+ \d+",
                  ok="{rj} advances exactly once per token",
                  bad="{rj} must advance exactly once per token; advancing "
                      "it more than once skips fields"),
        ],
        edges=[GraphEdge(0, 2, _DATA), GraphEdge(1, 2, _CTRL)],
        feedback_present="You advance the field index {rj} once per "
                         "token.",
        feedback_missing="We expected a field index advanced once per "
                         "scanned token.",
    ))

    # 24 -----------------------------------------------------------------
    library.append(Pattern(
        name="scanner-close",
        description="closing the scanner after use",
        nodes=[
            _node(0, call, r"sc3\.close\(\)", ("sc3",), approx=r"sc3\.close",
                  ok="the scanner {sc3} is closed",
                  bad="close the scanner {sc3} with {sc3}.close()"),
        ],
        edges=[],
        feedback_present="You close the scanner {sc3} when you are done.",
        feedback_missing="Remember to close the scanner with close() once "
                         "the file has been processed.",
    ))

    return {pattern.name: pattern for pattern in library}


_LIBRARY = _build_library()


def all_patterns() -> dict[str, Pattern]:
    """All 24 unique patterns, keyed by name."""
    return dict(_LIBRARY)


def get_pattern(name: str) -> Pattern:
    """Look up one pattern by name."""
    if name not in _LIBRARY:
        raise KnowledgeBaseError(f"unknown pattern {name!r}")
    return _LIBRARY[name]
