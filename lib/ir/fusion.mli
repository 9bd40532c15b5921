(** Fusion planner: which operator chains execute as one pass.

    Mirrors the paper's §5 operator-merging optimisation on the
    execution side: the code generators already {e render} merged
    operators ([Render.render ~shared_scans]); this module decides which
    chains the interpreter ([Engines.Exec_helper]) may {e run} merged,
    with interior results never materialized: [Engines.Exec_helper]
    runs a planned chain as SELECT/PROJECT/MAP kernels over one
    {!Relation.Table.view}, materializing nothing until the tail.

    A chain is a maximal run of row-local operators — SELECT, PROJECT,
    MAP — linked head-to-tail by single-consumer edges. A node may sit
    {e inside} a chain (and so skip materialization) only when nothing
    else can observe its table:

    - it has exactly one consumer, which is the next chain member;
    - it is not a workflow output ([g.outputs]);
    - its output name is not one the WHILE driver looks up by name
      (loop-carried relations, loop-condition relations, body outputs —
      see the [protect] argument).

    The chain's tail is materialized normally, so downstream nodes and
    output collection are unaffected. Planning is pure analysis: it
    never rewrites the graph, so disabling fusion ([MUSKETEER_FUSION=0]
    or [--no-fusion]) reproduces the unfused execution exactly. *)

type chain = {
  source : int;  (** node feeding the head (often an INPUT) *)
  members : int list;  (** >= 2 node ids in dataflow order *)
}

type role =
  | Solo  (** not part of any chain: evaluate as before *)
  | Interior of chain  (** skipped — computed inside the fused pass *)
  | Tail of chain  (** evaluate the whole chain here, in one pass *)

type plan

(** The no-fusion plan: every node is [Solo]. *)
val empty : plan

(** [plan ?protect g] groups maximal fusable chains of [g]. [protect]
    adds relation names that must stay materialized under their own
    node (used for WHILE bodies, whose condition relations are looked
    up by name by the loop driver). *)
val plan : ?protect:string list -> Operator.graph -> plan

val chains : plan -> chain list

val role : plan -> int -> role

(** Is fusion on? [set_enabled] override first, else the
    [MUSKETEER_FUSION] environment variable ("0" / "false" / "off" /
    "no" disable), else on. *)
val enabled : unit -> bool

(** [set_enabled (Some false)] forces fusion off for this process (the
    CLI's [--no-fusion]); [set_enabled None] returns to the
    environment default. *)
val set_enabled : bool option -> unit
