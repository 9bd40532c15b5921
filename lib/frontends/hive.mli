(** HiveQL-subset front-end (paper §4.1.1, Listing 1).

    Statement-oriented: each statement names its result with [AS], and
    later statements refer to earlier results (or to HDFS relations) by
    name. The subset covers the relational core the paper's workflows
    use:

    {v
SELECT id, street, town FROM properties AS locs;
locs JOIN prices ON locs.id = prices.id AS id_price;
SELECT street, town, MAX(price) FROM id_price
  GROUP BY street AND town AS street_price;
    v}

    Grammar:
    {v
program   := statement (';' statement)* [';']
statement := SELECT items FROM name [WHERE expr]
               [GROUP BY name (AND name)*] [HAVING expr] AS name
           | name JOIN name ON qual '=' qual AS name
           | name (UNION | INTERSECT | EXCEPT) name AS name
items     := item (',' item)*
item      := column | rel.column
           | (MAX|MIN|SUM|AVG|COUNT) '(' column ')' [AS column]
    v}

    Relations defined but never consumed become the workflow outputs. *)

(** Also raised, at line 0, for a program the IR rejects
    ({!Ir.Dag.Invalid}). *)
exception Parse_error of string * int

val parse : string -> Ir.Operator.graph
