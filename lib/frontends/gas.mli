(** Gather-Apply-Scatter DSL front-end (paper §4.1.2, Listing 2).

    Users define the three GAS steps with relational/column operators;
    Musketeer transforms the vertex-centric program into its data-flow
    IR (the reverse of GraphX's encoding, §4.3.1): SCATTER becomes a
    JOIN of the edge relation with the vertex state plus column
    algebra on the outgoing message, GATHER becomes a GROUP BY over the
    destination vertex, and APPLY becomes column algebra on the
    gathered value — all inside a WHILE.

    The PageRank of Listing 2:
    {v
GATHER = {
  SUM (vertex_value)
}
APPLY = {
  MUL [vertex_value, 0.85]
  SUM [vertex_value, 0.15]
}
SCATTER = {
  DIV [vertex_value, vertex_degree]
}
ITERATION_STOP = (iteration < 20)
ITERATION = {
  SUM [iteration, 1]
}
    v}

    Column-algebra steps read [OP [vertex_value, operand]] as
    "vertex_value := vertex_value OP operand"; [operand] may reference
    vertex columns (e.g. [vertex_degree]).

    Conventions: the vertex relation has columns
    [id:int, vertex_value:float, vertex_degree:int]; the edge relation
    has [src:int, dst:int]. Vertices with no in-edges keep their value
    through a 0-valued gather. *)

(** Also raised, at line 0, for a program the IR rejects
    ({!Ir.Dag.Invalid}). *)
exception Parse_error of string * int

type algebra_op = {
  op : Relation.Expr.binop;
  operand : Relation.Expr.t;
}

type gather_fn =
  | Gather_sum
  | Gather_min
  | Gather_max
  | Gather_count

type program = {
  gather : gather_fn;
  apply : algebra_op list;
  scatter : algebra_op list;
  iterations : int;
}

val parse : string -> program

(** The WHILE body alone (the one-superstep dataflow), for workflows
    that splice PageRank behind a batch stage (§6.3). Loop-carried
    relation: [vertices]. *)
val body_graph :
  program -> vertices:string -> edges:string -> Ir.Operator.graph

(** [to_dataflow p ~vertices ~edges] builds the WHILE-based IR graph
    reading the named HDFS relations. The loop's output relation is
    [vertices]. *)
val to_dataflow : program -> vertices:string -> edges:string ->
  Ir.Operator.graph

val parse_to_graph :
  string -> vertices:string -> edges:string -> Ir.Operator.graph
