(** Pig Latin front-end (subset).

    Pig is the paper's canonical example of a high-level framework whose
    semantics are "heavily influenced by the execution engine to which
    they compile" (§9 — COGROUP delineating MapReduce jobs); translating
    it to the Musketeer IR decouples exactly that. The subset covers the
    idioms production Pig scripts are built from:

    {v
purchases = LOAD 'purchases';
eu        = FILTER purchases BY region == 'EU';
by_user   = GROUP eu BY uid;
spend     = FOREACH by_user GENERATE group, SUM(eu.amount) AS total;
big       = FILTER spend BY total > 1000;
STORE big INTO 'big_spenders';
    v}

    Grammar:
    {v
program   := statement*
statement := name = LOAD 'relation' ;
           | name = FILTER name BY expr ;
           | name = FOREACH name GENERATE items ;
           | name = GROUP name BY key | (key, ...) ;
           | name = JOIN name BY col, name BY col ;
           | name = DISTINCT name ;
           | name = UNION name, name ;
           | name = ORDER name BY col [ASC|DESC] ;
           | name = LIMIT name n ;
           | STORE name INTO 'relation' ;
items     := item (, item)*
item      := group | col [AS name]
           | (SUM|MIN|MAX|AVG|COUNT) ( rel.col ) [AS name]
           | expr AS name
    v}

    [FOREACH] over a [GROUP]ed relation must generate [group] and
    aggregates (the standard Pig aggregation idiom) and becomes a single
    GROUP BY operator; [FOREACH] over a plain relation becomes
    projection / column algebra. [group] expands to the grouping keys.
    Pig's [==] equality and [!=] are accepted. An alias may be assigned
    again ([B = FILTER A BY ...; B = DISTINCT B;]); only its final
    assignment keeps the name in the IR (see {!Ir.Builder}). *)

(** Also raised, at line 0, for a program the IR rejects
    ({!Ir.Dag.Invalid}). *)
exception Parse_error of string * int

val parse : string -> Ir.Operator.graph
