(** Fusion planner: which operator chains price as merged.

    Mirrors the paper's §5 operator-merging optimisation: the code
    generators {e render} merged operators
    ([Render.render ~shared_scans]); this module decides which chains
    the interpreter ([Engines.Exec_helper]) {e prices} as merged, with
    interior tables that a merged engine would never write. Every
    operator still runs on its own kernel: merging changes pricing
    only, and it is always on, as in the paper's code generators.

    A chain is a maximal run of row-local operators — SELECT, PROJECT,
    MAP — linked head-to-tail by single-consumer edges, optionally
    headed by the JOIN that feeds its first SELECT. A JOIN head runs
    with that SELECT as one kernel ({!Relation.Columnar.try_join_select}),
    and is priced as the solo JOIN. A node may sit {e inside} a chain
    (and so be priced as never written), or head one as a JOIN, only
    when nothing else can observe its table:

    - it has exactly one consumer, which is the next chain member;
    - it is not a workflow output ([g.outputs]);
    - its output name is not one the WHILE driver looks up by name
      (loop-carried and loop-condition relations — see the [protect]
      argument; body outputs are outputs, and only an INPUT, never a
      chain member, can share an output's name, see {!Dag}).

    One more shape closes over a JOIN head: the {e arg-min diamond}
    ({!argmin}). And a MAP read by nothing but a GROUP BY runs inside
    it ({!map_group_by}). Planning is pure analysis: it never rewrites
    the graph. *)

type chain = {
  source : int;  (** node feeding the head (often an INPUT); a JOIN
                     head's left input *)
  members : int list;  (** >= 2 node ids in dataflow order *)
  join_head : bool;  (** the first member is a JOIN *)
}

type role =
  | Solo  (** not part of any chain: priced from its measured bytes *)
  | Head of chain
      (** a JOIN head: runs with its SELECT as one kernel; priced as
          the solo JOIN *)
  | Interior of chain
      (** runs on its own kernel; priced from an {!Sizing} prior *)
  | Tail of chain
      (** runs on its own kernel; the chain's row-local members are
          priced here, the tail from end-to-end measured selectivity *)

(** The arg-min diamond, k-means' assignment step:
    {v
    x = L CROSS R;  d = MAP x t := e;  g = GROUP BY d [k] MIN(t) AS b;
    best = g, then any MAPs and PROJECTs;
    j = d JOIN best ON k = k';  s = SELECT j WHERE t = b'
    v}
    where [k'] and [b'] are copies of [g]'s [k] and [b] under the names
    [best] gives them, and [j] heads a chain. It runs as one kernel
    ({!Relation.Columnar.try_argmin}): the CROSS, the MAP and the JOIN
    leave no table, the GROUP BY's table and the SELECT's come from the
    kernel, and the nodes from [g] to [best] run on their own. [d] has
    two consumers, but both are members: like [x], it is neither a
    workflow output nor a protected name, so nothing outside the shape
    can ask for its table. Pricing is untouched: the CROSS, the MAP and
    the GROUP BY stay {!Solo} and the JOIN a {!Head}, priced from the
    sizes the kernel computes from counts. *)
type argmin = {
  cross : int;  (** [x] *)
  map : int;  (** [d] *)
  group : int;  (** [g] *)
  join : int;  (** [j] *)
  select : int;  (** [s] *)
  target : string;  (** [t] *)
  expr : Relation.Expr.t;  (** [e] *)
  key : string;  (** [k] *)
  min_as : string;  (** [b] *)
  min_column : string;  (** [b']: the column of [best] the SELECT reads *)
}

(** A MAP whose only reader is the GROUP BY after it:
    {v
    m = MAP t target := expr;  g = GROUP BY m keys aggs
    v}
    where [m] is neither a workflow output nor a protected name, so
    nothing but [g] can ask for its table, and [target] is not one of
    [keys]. It runs as one kernel, the GROUP BY's blocked pass with the
    MAP's program run on each block
    ({!Relation.Columnar.try_map_group_by}): [m] leaves no table, and
    when [t] is a JOIN's matches, neither do the pairs. The kernel
    refuses a non-numeric target, and the two operators then run one by
    one. Pricing is untouched: [m] keeps its role and is priced from
    the sizes the kernel computes from counts ([t]'s column bytes, and
    8 bytes a row for [target]). Both nodes are in one graph, so in one
    job: a MAP its job writes out is an output, and none of these. *)
type map_group_by = {
  mg_map : int;  (** [m] *)
  mg_group : int;  (** [g] *)
  mg_target : string;
  mg_expr : Relation.Expr.t;
  mg_keys : string list;
  mg_aggs : Relation.Aggregate.t list;
}

type plan

(** [plan ?protect g] groups maximal fusable chains of [g]. [protect]
    adds relation names that must stay materialized under their own
    node (used for WHILE bodies, whose condition relations are looked
    up by name by the loop driver). *)
val plan : ?protect:string list -> Operator.graph -> plan

val chains : plan -> chain list

(** The row-local members: all of them, or those after a JOIN head.
    They are priced as one merged pass ({!Engines.Perf.charges}),
    exactly as a chain of them alone would be; a JOIN head is priced
    as the solo JOIN. *)
val row_local : chain -> int list

val role : plan -> int -> role

(** The plan's arg-min diamonds, in graph order. *)
val argmins : plan -> argmin list

(** The plan's MAP → GROUP BY pairs, in graph order. *)
val map_group_bys : plan -> map_group_by list

(** Does nothing. Kept only because the repository benchmark
    ([perfbench/bench.ml]) calls it, as {!Relation.Pool} is; nothing
    outside [perfbench/] may call it, and it goes at the next change
    to that benchmark. *)
val set_enabled : bool option -> unit
