(** Common-subplan sharing: cut-point discovery and graph surgery.

    The serving layer's multi-query optimization (docs/serving.md)
    rests on three pure pieces living here: {!candidates} finds the
    eligible cut points of a DAG via {!Ir.Dag.sharable} with the
    fusion plan's chain interiors as barriers, topmost first;
    {!extract} builds the stand-alone prefix workflow a payer
    executes; {!cut} rewrites a DAG so an attached prefix becomes a
    synthetic INPUT — after which the ordinary estimator/partitioner
    price it at one HDFS read and zero compute, with no special case
    in {!Cost} beyond the {!Cost.subplan_cut} value heuristic. *)

type candidate = {
  sc_id : int;  (** cut node *)
  sc_hash : string;
      (** its subtree hash ({!Ir.Dag.node_hash}), also its share key:
          no gate changes a prefix's output or modeled size *)
  sc_inputs : string list;  (** INPUT relations the cone reads *)
  sc_ops : int;  (** operator count of the cone (INPUTs excluded) *)
}

(** Eligible cut points, topmost first ({!Ir.Dag.sharable}: no WHILE
    or carried INPUT in the cone, UDF/BLACK_BOX opacity, fusion
    barriers). *)
val candidates : Ir.Dag.t -> candidate list

(** The prefix workflow rooted at a cut node: its input cone extracted
    as a stand-alone graph (outputs include the cut node's relation). *)
val extract : Ir.Dag.t -> int -> Ir.Dag.t

(** [cut g [(id, rel); ...]] — replace each cut node by an INPUT
    reading [rel] and drop now-unreachable cone nodes. Identity on an
    empty cut list. *)
val cut : Ir.Dag.t -> (int * string) list -> Ir.Dag.t

(** ["__subplan:<hash>"] — the synthetic relation an attached prefix
    is read from. *)
val relation : hash:string -> string

val is_subplan_relation : string -> bool

