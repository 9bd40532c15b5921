(** BEER — Musketeer's own SQL-like workflow DSL with iteration
    (paper §4.1.1).

    Assignment-oriented: every statement binds a relation name, and
    [WHILE] blocks iterate a group of statements with loop-carried
    relations inferred automatically (relations that the block both
    reads and re-binds). A name may be bound again; only its final
    binding keeps the name in the IR (see {!Ir.Builder}). In a WHILE
    body every binding gets a name of its own, and each carried
    relation is paired with its final binding in the block, whatever
    the order of its reads and binds. Example (single-source shortest
    paths):

    {v
dists = INPUT 'seeds';
edges = INPUT 'edges';
WHILE (CHANGES dists) MAXITER 50 {
  step  = dists JOIN edges ON node = src;
  cand  = MAP step SET cost = cost + weight;
  next  = SELECT dst AS node, MIN(cost) AS cost FROM cand GROUP BY dst;
  dists = next UNION dists;
  dists = SELECT node, MIN(cost) AS cost FROM dists GROUP BY node;
}
OUTPUT dists;
    v}

    Grammar:
    {v
program := item*
item    := name '=' rexpr ';'
         | WHILE '(' cond ')' [MAXITER int] '{' item* '}'
         | OUTPUT name ';'
cond    := ITERATION '<' int | NONEMPTY name | CHANGES name
rexpr   := INPUT string
         | SELECT sitems FROM name [WHERE expr] [GROUP BY cols]
         | name JOIN name ON col '=' col
         | name SEMIJOIN name ON col '=' col
         | name ANTIJOIN name ON col '=' col
         | name CROSS name
         | name (UNION | INTERSECT | DIFFERENCE) name
         | MAP name SET col '=' expr
         | DISTINCT name
         | TOP int OF name BY col [ASC|DESC]
         | SORT name BY col [ASC|DESC]
sitems  := sitem (',' sitem)*
sitem   := col [AS name] | AGG '(' col ')' [AS name]
    v}

    [SELECT col AS name] projects and renames; inside a grouped select,
    plain columns must be the group keys. *)

(** Also raised, at line 0, for a program the IR rejects
    ({!Ir.Dag.Invalid}). *)
exception Parse_error of string * int

val parse : string -> Ir.Operator.graph
