(** Musketeer's intermediate representation: a DAG of data-flow
    operators (paper §4.2).

    The operator set is loosely based on relational algebra — SELECT,
    PROJECT, UNION, INTERSECT, JOIN, DIFFERENCE, aggregators (AGG,
    GROUP BY), column-level algebra (SUM, SUB, DIV, MUL via {!kind.Map}),
    extremes (MAX, MIN via aggregations and {!kind.Top_k}) — plus WHILE
    for data-dependent iteration, user-defined functions, and a black-box
    escape hatch to a native back-end.

    The [graph] type lives here (rather than in {!Dag}) because WHILE
    bodies are themselves graphs; {!Dag} provides the operations. *)

(** Stop condition of a WHILE operator. The DAG is extended dynamically,
    one body expansion per iteration (paper §4.2). *)
type loop_condition =
  | Fixed_iterations of int
      (** the paper's [ITERATION_STOP (iteration < n)] *)
  | Until_empty of string
      (** iterate while the new value of the named carried INPUT has
          rows (frontier-style algorithms, e.g. SSSP) *)
  | Until_fixpoint of string
      (** iterate until the named carried INPUT's new value equals its
          old one (within [max_iterations] as a safety net) *)

type kind =
  | Input of { relation : string }
      (** reads a named relation from storage *)
  | Select of { pred : Relation.Expr.t }
  | Project of { columns : string list }
  | Map of { target : string; expr : Relation.Expr.t }
      (** column-level algebra: the paper's SUM/SUB/MUL/DIV operators *)
  | Join of { left_key : string; right_key : string }
  | Left_outer_join of {
      left_key : string;
      right_key : string;
      defaults : Relation.Value.t list;
          (** values filling the right-side columns of unmatched left
              rows (no NULLs in the value model) *)
    }
  | Semi_join of { left_key : string; right_key : string }
      (** left rows with at least one match; left schema *)
  | Anti_join of { left_key : string; right_key : string }
      (** left rows with no match; left schema *)
  | Cross  (** cross join (used by the paper's k-means workflow) *)
  | Union
  | Intersect
  | Difference
  | Distinct
  | Group_by of { keys : string list; aggs : Relation.Aggregate.t list }
  | Agg of { aggs : Relation.Aggregate.t list }
      (** global aggregation — GROUP BY with no keys *)
  | Sort of { by : string; descending : bool }
  | Top_k of { by : string; descending : bool; k : int }
  | Udf of udf
  | While of { condition : loop_condition; max_iterations : int; body : graph }
  | Black_box of { backend_hint : string; description : string }
      (** operator only a specific native back-end can run (§4.1.3) *)

and udf = {
  udf_name : string;
  arity : int;
  fn : Relation.Table.t list -> Relation.Table.t;
  (** Schema of the UDF output given input schemas; needed for type
      inference through the DAG. *)
  out_schema : Relation.Schema.t list -> Relation.Schema.t;
  (** Relative per-byte processing cost vs. a SELECT (cost model input). *)
  cost_factor : float;
}

and node = {
  id : int;
  kind : kind;
  inputs : int list;  (** node ids, in argument order *)
  output : string;    (** name of the relation this node produces *)
}

and graph = {
  nodes : node list;       (** in increasing-id order *)
  outputs : int list;      (** ids of nodes whose relations are workflow results *)
  carried : (string * string) list;
      (** for WHILE bodies only: the loop-carried pairs [(old, next)],
          where [old] is a body INPUT relation and [next] the body
          output relation that replaces it in the next iteration *)
}

(** Number of inputs the operator consumes: a UDF's [arity], a WHILE's
    count of body INPUT nodes (bound positionally); [None] for
    BLACK_BOX. *)
val expected_arity : kind -> int option

(** Short name used in plans, costs tables and rendered code. *)
val kind_name : kind -> string

(** One-line description including parameters. *)
val describe : kind -> string

(** Whether the operator can only shrink its input (selective) — the
    conservative data-size bound of §5.2 merges these eagerly. *)
val selective : kind -> bool

(** Whether the operator can grow its output beyond its inputs
    (generative: JOIN, CROSS, UNION, UDF, WHILE). *)
val generative : kind -> bool

(** Whether the operator forces a shuffle (group/join boundary) in a
    MapReduce-style engine — at most one of these per MapReduce job. *)
val needs_shuffle : kind -> bool

(** All aggregations of the operator are associative (combiner-friendly);
    vacuously true for non-aggregating operators. Drives the improved
    Naiad GROUP BY of §6.2 and idiom selection in §4.3.1. *)
val associative_aggregation : kind -> bool
